#include "sim/experiment.h"

#include "base/log.h"
#include "verify/auditor.h"

namespace tlsim {
namespace sim {

const char *
barName(Bar b)
{
    switch (b) {
      case Bar::Sequential: return "SEQUENTIAL";
      case Bar::TlsSeq: return "TLS-SEQ";
      case Bar::NoSubthread: return "NO SUB-THREAD";
      case Bar::Baseline: return "BASELINE";
      case Bar::NoSpeculation: return "NO SPECULATION";
    }
    return "?";
}

const std::vector<Bar> &
allBars()
{
    static const std::vector<Bar> v = {
        Bar::Sequential, Bar::TlsSeq, Bar::NoSubthread, Bar::Baseline,
        Bar::NoSpeculation,
    };
    return v;
}

ExperimentConfig
ExperimentConfig::paper(tpcc::TxnType type, bool quick, unsigned txns)
{
    ExperimentConfig cfg;
    if (quick) {
        cfg.scale = tpcc::TpccConfig::tiny();
        cfg.scale.items = 2000;
        cfg.scale.customersPerDistrict = 150;
        cfg.scale.ordersPerDistrict = 150;
        cfg.scale.firstNewOrder = 76;
    }
    switch (type) {
      case tpcc::TxnType::NewOrder150:
        cfg.txns = 6;
        cfg.warmupTxns = 1;
        break;
      case tpcc::TxnType::DeliveryOuter:
      case tpcc::TxnType::Delivery:
        cfg.txns = 8;
        cfg.warmupTxns = 2;
        break;
      default:
        cfg.txns = 12;
        cfg.warmupTxns = 2;
        break;
    }
    if (txns) {
        cfg.txns = txns;
        cfg.warmupTxns = txns > 4 ? 2 : 1;
    }
    return cfg;
}

ExperimentConfig
ExperimentConfig::testPreset()
{
    ExperimentConfig cfg;
    cfg.scale = tpcc::TpccConfig::tiny();
    cfg.txns = 6;
    cfg.warmupTxns = 1;
    return cfg;
}

void
BenchmarkTraces::buildIndexes(unsigned line_bytes)
{
    if (!originalIndex || !originalIndex->matches(&original, line_bytes))
        originalIndex =
            std::make_shared<const TraceIndex>(original, line_bytes);
    if (!tlsIndex || !tlsIndex->matches(&tls, line_bytes))
        tlsIndex = std::make_shared<const TraceIndex>(tls, line_bytes);
}

BenchmarkTraces
captureTraces(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    BenchmarkTraces out;

    tpcc::CaptureOptions orig;
    orig.txns = cfg.txns;
    orig.tlsBuild = false;
    orig.parallelMode = false;
    orig.inputSeed = cfg.inputSeed;
    orig.loadSeed = cfg.loadSeed;
    orig.scale = cfg.scale;
    out.original = tpcc::captureBenchmark(type, orig);

    tpcc::CaptureOptions tls = orig;
    tls.tlsBuild = true;
    tls.parallelMode = true;
    tls.spawnOverheadInsts = cfg.machine.tls.spawnOverheadInsts;
    out.tls = tpcc::captureBenchmark(type, tls);

    return out;
}

RunResult
runBar(Bar bar, const BenchmarkTraces &traces,
       const ExperimentConfig &cfg)
{
    MachineConfig mc = cfg.machine;
    const TraceIndex *orig_idx = traces.originalIndex.get();
    const TraceIndex *tls_idx = traces.tlsIndex.get();
    switch (bar) {
      case Bar::Sequential: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.original, ExecMode::Serial, cfg.warmupTxns,
                     orig_idx);
      }
      case Bar::TlsSeq: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Serial, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::NoSubthread: {
        mc.tls.subthreadsPerThread = 1;
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Tls, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::Baseline: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::Tls, cfg.warmupTxns,
                     tls_idx);
      }
      case Bar::NoSpeculation: {
        TlsMachine m(mc);
        return verify::runWithAudit(m, traces.tls, ExecMode::NoSpeculation,
                     cfg.warmupTxns, tls_idx);
      }
    }
    panic("unknown bar");
}

RunResult
runSweepPoint(unsigned subthreads, std::uint64_t spacing,
              const BenchmarkTraces &traces, const ExperimentConfig &cfg)
{
    MachineConfig mc = cfg.machine;
    mc.tls.subthreadsPerThread = subthreads;
    mc.tls.subthreadSpacing = spacing;
    TlsMachine m(mc);
    return verify::runWithAudit(m, traces.tls, ExecMode::Tls,
                                cfg.warmupTxns, traces.tlsIndex.get());
}

const RunResult &
Figure5Row::result(Bar b) const
{
    for (const auto &[bar, run] : bars)
        if (bar == b)
            return run;
    panic("Figure5Row: bar %s missing", barName(b));
}

double
Figure5Row::speedup(Bar b) const
{
    return result(b).speedupVs(result(Bar::Sequential));
}

Table2Row
table2Row(tpcc::TxnType type, const ExperimentConfig &cfg,
          const BenchmarkTraces &traces)
{
    Table2Row row{};
    row.type = type;

    RunResult seq = runBar(Bar::Sequential, traces, cfg);
    row.execMcycles = static_cast<double>(seq.makespan) / 1e6;

    // Workload statistics over the measured transactions of the TLS
    // trace (the decomposition the parallel bars execute).
    double cov_num = 0, cov_den = 0;
    std::uint64_t epochs = 0, loops = 0;
    double insts = 0, spec_insts = 0;
    for (std::size_t i = cfg.warmupTxns; i < traces.tls.txns.size();
         ++i) {
        const TransactionTrace &t = traces.tls.txns[i];
        cov_num += static_cast<double>(t.parallelInsts());
        cov_den += static_cast<double>(t.totalInsts());
        epochs += t.epochCount();
        for (const auto &sec : t.sections) {
            if (!sec.parallel)
                continue;
            ++loops;
            for (const auto &e : sec.epochs) {
                insts += static_cast<double>(e.instCount);
                spec_insts += static_cast<double>(e.specInstCount);
            }
        }
    }
    row.coverage = cov_den > 0 ? cov_num / cov_den : 0;
    row.threadSizeInsts = epochs ? insts / epochs : 0;
    row.specInstsPerThread = epochs ? spec_insts / epochs : 0;
    // threads per transaction = epochs per parallel-loop instance
    row.threadsPerTxn =
        loops ? static_cast<double>(epochs) / static_cast<double>(loops)
              : 0;
    row.epochs = epochs;
    return row;
}

} // namespace sim
} // namespace tlsim
