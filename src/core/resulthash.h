/**
 * @file
 * Canonical digests of the simulator's result-carrying structures for
 * the --det-probe determinism probe (base/dethash.h). Field order is
 * fixed here, independently of struct layout, so the digest protocol
 * survives refactors that reorder members; every field that the
 * benches print or serialize is covered, including the order-carrying
 * vectors (violatedLines, commitOrder) whose sequence IS the result.
 */

#ifndef CORE_RESULTHASH_H
#define CORE_RESULTHASH_H

#include "base/dethash.h"
#include "core/machine.h"
#include "core/trace.h"

namespace tlsim {
namespace det {

/** Digest of one run's complete RunResult. */
inline std::uint64_t
hashRunResult(const RunResult &r)
{
    Hash h;
    h.u64(r.makespan);
    for (std::uint64_t c : r.total.cycles)
        h.u64(c);
    h.u64(r.txns);
    h.u64(r.epochs);
    h.u64(r.totalInsts);
    h.u64(r.primaryViolations);
    h.u64(r.secondaryViolations);
    h.u64(r.squashes);
    h.u64(r.rewoundInsts);
    h.u64(r.subthreadsStarted);
    h.u64(r.overflowEvents);
    h.u64(r.latchWaits);
    h.u64(r.escapeSkips);
    h.u64(r.predictorStalls);
    h.u64(r.recordsReplayed);
    h.u64(r.l1Hits);
    h.u64(r.l1Misses);
    h.u64(r.l2Hits);
    h.u64(r.l2Misses);
    h.u64(r.victimHits);
    h.u64(r.branches);
    h.u64(r.mispredicts);
    h.u64(r.auditChecks);
    h.u64(r.violatedLines.size());
    for (Addr a : r.violatedLines)
        h.u64(a);
    h.u64(r.commitOrder.size());
    for (std::uint64_t seq : r.commitOrder)
        h.u64(seq);
    return h.value();
}

/**
 * Digest of a captured workload: every record byte-for-byte plus the
 * section/epoch structure. A capture holds synthetic addresses and
 * compiled site PCs only, so every process, cold or warm, agrees on
 * it.
 */
inline std::uint64_t
hashWorkloadTrace(const WorkloadTrace &w)
{
    Hash h;
    h.u64(w.txns.size());
    for (const TransactionTrace &txn : w.txns) {
        h.u64(txn.sections.size());
        for (const TraceSection &sec : txn.sections) {
            h.u64(sec.parallel ? 1 : 0);
            h.u64(sec.epochs.size());
            for (const EpochTrace &e : sec.epochs) {
                h.u64(e.records.size());
                for (const TraceRecord &r : e.records) {
                    h.u64(static_cast<std::uint64_t>(r.op));
                    h.u64(r.size);
                    h.u64(r.aux);
                    h.u64(r.pc);
                    h.u64(r.addr);
                }
                h.u64(e.instCount);
                h.u64(e.specInstCount);
                h.u64(e.escapeSpans.size());
                for (const auto &[b, en] : e.escapeSpans) {
                    h.u64(b);
                    h.u64(en);
                }
            }
        }
    }
    return h.value();
}

} // namespace det
} // namespace tlsim

#endif // CORE_RESULTHASH_H
