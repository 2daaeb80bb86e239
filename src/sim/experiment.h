/**
 * @file
 * Experiment harness: glues the TPC-C capture driver to the TLS
 * machine. Capture a benchmark once, then run the simulation points
 * of the paper's evaluation artifacts over the shared traces —
 *
 *  - Figure 5: the five bars (SEQUENTIAL, TLS-SEQ, NO SUB-THREAD,
 *    BASELINE, NO SPECULATION) per benchmark, one runBar() each;
 *  - Figure 6: the sub-thread count x spacing sweep, one
 *    runSweepPoint() each;
 *  - Table 2: benchmark statistics from the captured traces and the
 *    sequential run.
 *
 * runBar() and runSweepPoint() are the only places an artifact runs a
 * machine; both attach the runtime auditor at the configured level.
 * The bench/ mains drive them across benchmarks and --jobs workers.
 */

#ifndef SIM_EXPERIMENT_H
#define SIM_EXPERIMENT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "base/config.h"
#include "core/machine.h"
#include "core/trace.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace sim {

/** The Figure 5 configurations. */
enum class Bar {
    Sequential,
    TlsSeq,
    NoSubthread,
    Baseline,
    NoSpeculation,
};

const char *barName(Bar b);
const std::vector<Bar> &allBars();

/** The two captures a benchmark needs. */
struct BenchmarkTraces
{
    WorkloadTrace original; ///< untuned DB, no markers (SEQUENTIAL)
    WorkloadTrace tls;      ///< tuned DB + markers (all other bars)

    /**
     * Trace pre-analyses, shared read-only by every simulation point
     * that replays the corresponding workload (the analysis depends
     * only on the trace and the line size, not on any TLS knob).
     * Null until buildIndexes() — runBar() and the machine tolerate
     * that by building a private index, but then the work repeats per
     * run instead of once per capture.
     */
    std::shared_ptr<const TraceIndex> originalIndex;
    std::shared_ptr<const TraceIndex> tlsIndex;

    /** Analyse both workloads (no-op if already built for this
     *  object; must be re-run if the traces are moved/reassigned). */
    void buildIndexes(unsigned line_bytes);
};

/** Experiment-wide knobs. */
struct ExperimentConfig
{
    tpcc::TpccConfig scale;
    unsigned txns = 12;       ///< captured transactions per benchmark
    unsigned warmupTxns = 2;  ///< excluded from measured statistics
    std::uint64_t inputSeed = 42;
    std::uint64_t loadSeed = 7;
    MachineConfig machine;    ///< baseline machine (Table 1)

    /**
     * The preset of the published figures: full single-warehouse
     * TPC-C, or with `quick` a reduced scale for CI. The large-thread
     * benchmarks (NEW ORDER 150, the DELIVERY variants) capture fewer
     * transactions, since one transaction already provides hundreds
     * of thousands of instructions of parallel work. `txns` != 0
     * overrides the per-benchmark count (and sizes the warm-up to it).
     */
    static ExperimentConfig paper(tpcc::TxnType type, bool quick,
                                  unsigned txns = 0);

    /** A scaled-down preset for tests. */
    static ExperimentConfig testPreset();
};

/** Capture both traces for a benchmark. */
BenchmarkTraces captureTraces(tpcc::TxnType type,
                              const ExperimentConfig &cfg);

/** Run one Figure 5 bar over previously captured traces. */
RunResult runBar(Bar bar, const BenchmarkTraces &traces,
                 const ExperimentConfig &cfg);

/**
 * Run one Figure 6 point over previously captured traces: the BASELINE
 * machine with `subthreads` contexts spaced `spacing` instructions
 * apart. The Figure 6 twin of runBar().
 */
RunResult runSweepPoint(unsigned subthreads, std::uint64_t spacing,
                        const BenchmarkTraces &traces,
                        const ExperimentConfig &cfg);

/** One benchmark's Figure 5 column set. */
struct Figure5Row
{
    tpcc::TxnType type;
    std::vector<std::pair<Bar, RunResult>> bars;

    const RunResult &result(Bar b) const;
    /** makespan(SEQUENTIAL) / makespan(b). */
    double speedup(Bar b) const;
};

/** Figure 6: one (sub-thread count, spacing) measurement. */
struct SweepPoint
{
    unsigned subthreads;
    std::uint64_t spacing;
    RunResult run;
};

/** Table 2: per-benchmark workload statistics. */
struct Table2Row
{
    tpcc::TxnType type;
    double execMcycles;      ///< sequential execution time (measured)
    double coverage;         ///< fraction of insts in parallel loops
    double threadSizeInsts;  ///< mean dynamic insts per epoch
    double specInstsPerThread;
    double threadsPerTxn;    ///< mean epochs per parallel loop
    std::uint64_t epochs;
};

/** Table 2 over previously captured traces. */
Table2Row table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const BenchmarkTraces &traces);

} // namespace sim
} // namespace tlsim

#endif // SIM_EXPERIMENT_H
