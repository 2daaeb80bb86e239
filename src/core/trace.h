/**
 * @file
 * Trace representation for the trace-driven TLS simulation.
 *
 * The TPC-C transactions execute natively against minidb; every access
 * to database memory is recorded as a TraceRecord naming the object
 * touched by its synthetic address (core/tracer.h), so the cross-epoch
 * data dependences in the trace are the database's real dependences.
 * Pure computation is aggregated into Compute records with per-site
 * instruction costs, and control flow at marked sites becomes Branch
 * records that feed the GShare predictor during replay.
 *
 * A transaction's trace is a sequence of sections; each section is
 * either non-speculative straight-line work or a parallelized loop
 * whose iterations are the epochs (speculative threads).
 */

#ifndef CORE_TRACE_H
#define CORE_TRACE_H

#include <cstdint>
#include <vector>

#include "base/types.h"

namespace tlsim {

/** Kind of a trace record. */
enum class TraceOp : std::uint8_t {
    Load,          ///< data load: addr/size; aux bit0 = depends on prev load
    Store,         ///< data store: addr/size
    Compute,       ///< addr = instruction count; aux = ComputeClass
    Branch,        ///< aux bit0 = taken
    LatchAcquire,  ///< addr = latch id (always inside an escaped region)
    LatchRelease,  ///< addr = latch id
    EscapeBegin,   ///< start of escaped (non-speculative) execution
    EscapeEnd,     ///< end of escaped execution
};

/** Functional-unit class of a Compute record (Table 1 latencies). */
enum class ComputeClass : std::uint16_t {
    Int = 0,
    IntMul,
    IntDiv,
    Fp,
    FpDiv,
    FpSqrt,
};

/** aux bit set on a Load that consumes the previous load's result
 *  (pointer chasing); serializes the two in the CPU model. */
inline constexpr std::uint16_t kAuxDependent = 1;
/** aux bit set on a taken Branch. */
inline constexpr std::uint16_t kAuxTaken = 1;
/**
 * For memory records, aux bits 1.. carry the dynamic-instruction cost
 * of the access. The tracer computes it from the access's *total* size
 * and charges it to the first line-split chunk (continuation chunks
 * cost zero), so instruction counts never depend on how an address
 * happens to align against cache-line boundaries.
 */
inline constexpr unsigned kAuxInstShift = 1;

/** One event of a trace. 16 bytes. */
struct TraceRecord
{
    TraceOp op;
    std::uint8_t size;  ///< bytes for memory ops (records never span lines)
    std::uint16_t aux;
    Pc pc;
    std::uint64_t addr; ///< address / instruction count / latch id
};

static_assert(sizeof(TraceRecord) == 16, "TraceRecord should stay compact");

/** Dynamic-instruction cost of one record. */
inline InstCount
recordInsts(const TraceRecord &r)
{
    switch (r.op) {
      case TraceOp::Load:
      case TraceOp::Store:
        return r.aux >> kAuxInstShift;
      case TraceOp::Compute:
        return r.addr;
      case TraceOp::Branch:
        return 1;
      case TraceOp::LatchAcquire:
      case TraceOp::LatchRelease:
        return 4; // a few instructions of latch manipulation
      case TraceOp::EscapeBegin:
      case TraceOp::EscapeEnd:
        return 2;
    }
    return 0;
}

/** One epoch (speculative thread): a flat record list plus summaries. */
struct EpochTrace
{
    std::vector<TraceRecord> records;
    InstCount instCount = 0;     ///< total dynamic instructions
    InstCount specInstCount = 0; ///< dynamic instructions outside escapes

    /**
     * Spans of escaped regions as [beginIdx, endIdx] record-index pairs
     * (indices of the EscapeBegin/EscapeEnd records). Filled by the
     * capture tracer; used to skip already-performed escaped work on
     * replay after a rewind.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> escapeSpans;
};

/** A stretch of a transaction: sequential code or a parallelized loop. */
struct TraceSection
{
    bool parallel = false;
    /** If !parallel, epochs has exactly one entry (the plain trace). */
    std::vector<EpochTrace> epochs;
};

/** The complete trace of one transaction. */
struct TransactionTrace
{
    std::vector<TraceSection> sections;

    InstCount totalInsts() const;
    InstCount parallelInsts() const; ///< insts inside parallel sections
    /** Fraction of dynamic instructions inside parallelized loops. */
    double coverage() const;
    std::uint64_t epochCount() const;
    /** Mean epochs per parallel loop instance (Table 2 threads/txn). */
    double epochsPerLoop() const;
    /** Mean dynamic instructions per epoch (Table 2 thread size). */
    double meanEpochInsts() const;
    /** Mean speculative instructions per epoch. */
    double meanEpochSpecInsts() const;
};

/** A whole captured run: a list of transactions executed back to back. */
struct WorkloadTrace
{
    std::vector<TransactionTrace> txns;
};

} // namespace tlsim

#endif // CORE_TRACE_H
