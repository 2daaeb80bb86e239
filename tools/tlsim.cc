/**
 * @file
 * tlsim — command-line driver for the sub-threads TLS simulator.
 *
 *   tlsim capture  --benchmark=NEW_ORDER --out=no.trace [options]
 *   tlsim info     --trace=no.trace
 *   tlsim replay   --trace=no.trace [machine options]
 *   tlsim figure5  --benchmark=NEW_ORDER [options]
 *   tlsim figure6  --benchmark=NEW_ORDER [options]
 *   tlsim table2   [options]
 *   tlsim bench    --artifact=figure5|figure6|table2 [options]
 *
 * Common options:
 *   --quick            reduced TPC-C scale
 *   --txns=N           transactions to capture
 *   --original         capture the untuned, unparallelized build
 *   --jobs=N           parallel simulation points (0 = all cores)
 *   --trace-cache=DIR  reuse on-disk trace snapshots across runs
 * Machine options (replay):
 *   --mode=tls|serial|nospec   execution mode (default tls)
 *   --subthreads=K --spacing=N --cpus=N --adaptive
 *   --no-start-table --no-victim --lazy-updates
 *   --audit=off|commit|full    protocol invariant auditor level
 *   --warmup=N         transactions excluded from statistics
 *   --profile          print the dependence profiler afterwards
 *   --stats            dump the machine's statistics afterwards
 *   --det-probe        print canonical capture/replay result digests
 *
 * A flag the subcommand does not read, or a non-numeric value for a
 * numeric flag, is a fatal error.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/log.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"

#include "cliargs.h"

using namespace tlsim;

namespace {

tpcc::TxnType
benchmarkByName(const std::string &name)
{
    static const std::map<std::string, tpcc::TxnType> names = {
        {"NEW_ORDER", tpcc::TxnType::NewOrder},
        {"NEW_ORDER_150", tpcc::TxnType::NewOrder150},
        {"DELIVERY", tpcc::TxnType::Delivery},
        {"DELIVERY_OUTER", tpcc::TxnType::DeliveryOuter},
        {"STOCK_LEVEL", tpcc::TxnType::StockLevel},
        {"PAYMENT", tpcc::TxnType::Payment},
        {"ORDER_STATUS", tpcc::TxnType::OrderStatus},
    };
    auto it = names.find(name);
    if (it == names.end()) {
        std::string known;
        for (const auto &[n, t] : names)
            known += n + " ";
        fatal("unknown benchmark '%s' (known: %s)", name.c_str(),
              known.c_str());
    }
    return it->second;
}

sim::ExperimentConfig
experimentConfig(const CliArgs &a)
{
    sim::ExperimentConfig cfg;
    if (a.has("quick")) {
        cfg.scale = tpcc::TpccConfig::tiny();
        cfg.scale.items = 2000;
        cfg.scale.customersPerDistrict = 150;
        cfg.scale.ordersPerDistrict = 150;
        cfg.scale.firstNewOrder = 76;
        cfg.txns = 8;
    }
    cfg.txns = static_cast<unsigned>(a.num("txns", cfg.txns));
    cfg.warmupTxns = static_cast<unsigned>(
        a.num("warmup", std::min(2u, cfg.txns / 2)));
    return cfg;
}

MachineConfig
machineConfig(const CliArgs &a)
{
    MachineConfig mc;
    mc.tls.subthreadsPerThread = static_cast<unsigned>(
        a.num("subthreads", mc.tls.subthreadsPerThread));
    mc.tls.subthreadSpacing =
        a.num("spacing", mc.tls.subthreadSpacing);
    mc.tls.numCpus =
        static_cast<unsigned>(a.num("cpus", mc.tls.numCpus));
    mc.tls.adaptiveSpacing = a.has("adaptive");
    if (a.has("no-start-table"))
        mc.tls.useStartTable = false;
    if (a.has("no-victim"))
        mc.tls.useVictimCache = false;
    if (a.has("lazy-updates"))
        mc.tls.aggressiveUpdates = false;
    mc.tls.auditLevel = parseAuditLevel(a.str("audit", "off"));
    return mc;
}

ExecMode
modeByName(const std::string &m)
{
    if (m == "tls")
        return ExecMode::Tls;
    if (m == "serial")
        return ExecMode::Serial;
    if (m == "nospec")
        return ExecMode::NoSpeculation;
    fatal("unknown mode '%s' (tls|serial|nospec)", m.c_str());
}

void
printRun(const RunResult &r)
{
    std::printf("makespan           %llu cycles\n",
                static_cast<unsigned long long>(r.makespan));
    std::printf("transactions       %llu (%.0f cycles each)\n",
                static_cast<unsigned long long>(r.txns),
                r.txns ? static_cast<double>(r.makespan) /
                             static_cast<double>(r.txns)
                       : 0.0);
    std::printf("epochs committed   %llu\n",
                static_cast<unsigned long long>(r.epochs));
    std::printf("violations         %llu primary, %llu secondary\n",
                static_cast<unsigned long long>(r.primaryViolations),
                static_cast<unsigned long long>(r.secondaryViolations));
    std::printf("squashes           %llu (%llu insts rewound)\n",
                static_cast<unsigned long long>(r.squashes),
                static_cast<unsigned long long>(r.rewoundInsts));
    std::printf("sub-threads        %llu started\n",
                static_cast<unsigned long long>(r.subthreadsStarted));
    std::printf("latch waits        %llu; overflow events %llu\n",
                static_cast<unsigned long long>(r.latchWaits),
                static_cast<unsigned long long>(r.overflowEvents));
    std::printf("breakdown          ");
    for (unsigned c = 0; c < kNumCats; ++c) {
        double frac = r.total.total()
                          ? 100.0 * static_cast<double>(
                                        r.total.cycles[c]) /
                                static_cast<double>(r.total.total())
                          : 0.0;
        std::printf("%s %.1f%%  ", catName(static_cast<Cat>(c)), frac);
    }
    std::printf("\n");
    std::printf("caches             L1 %.2f%% miss, L2 %.2f%% miss, "
                "%llu victim hits\n",
                r.l1Hits + r.l1Misses
                    ? 100.0 * static_cast<double>(r.l1Misses) /
                          static_cast<double>(r.l1Hits + r.l1Misses)
                    : 0.0,
                r.l2Hits + r.l2Misses
                    ? 100.0 * static_cast<double>(r.l2Misses) /
                          static_cast<double>(r.l2Hits + r.l2Misses)
                    : 0.0,
                static_cast<unsigned long long>(r.victimHits));
    std::printf("branches           %llu (%.2f%% mispredicted)\n",
                static_cast<unsigned long long>(r.branches),
                r.branches ? 100.0 * static_cast<double>(
                                         r.mispredicts) /
                                 static_cast<double>(r.branches)
                           : 0.0);
}

int
cmdCapture(const CliArgs &a)
{
    tpcc::TxnType type = benchmarkByName(a.str("benchmark"));
    sim::ExperimentConfig cfg = experimentConfig(a);

    tpcc::CaptureOptions opts;
    opts.scale = cfg.scale;
    opts.txns = cfg.txns;
    opts.tlsBuild = !a.has("original");
    opts.parallelMode = !a.has("original");
    std::fprintf(stderr, "capturing %u %s transactions...\n",
                 opts.txns, tpcc::txnTypeName(type));
    WorkloadTrace w = tpcc::captureBenchmark(type, opts);

    std::string out = a.str("out", "workload.trace");
    sim::saveTraceFile(out, w);
    std::printf("wrote %s (%zu transactions)\n", out.c_str(),
                w.txns.size());
    return 0;
}

int
cmdInfo(const CliArgs &a)
{
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace", "workload.trace"), &w))
        fatal("not a tlsim trace file");
    std::printf("transactions: %zu\n", w.txns.size());
    for (std::size_t i = 0; i < w.txns.size(); ++i) {
        const auto &t = w.txns[i];
        std::printf("  txn %2zu: %llu insts, coverage %.0f%%, "
                    "%llu epochs (%.1f per loop, %.0f insts each)\n",
                    i,
                    static_cast<unsigned long long>(t.totalInsts()),
                    100.0 * t.coverage(),
                    static_cast<unsigned long long>(t.epochCount()),
                    t.epochsPerLoop(), t.meanEpochInsts());
    }
    return 0;
}

int
cmdReplay(const CliArgs &a)
{
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace", "workload.trace"), &w))
        fatal("not a tlsim trace file");
    MachineConfig mc = machineConfig(a);
    ExecMode mode = modeByName(a.str("mode", "tls"));
    unsigned warmup = static_cast<unsigned>(a.num("warmup", 0));

    TlsMachine m(mc);
    RunResult r = verify::runWithAudit(m, w, mode, warmup);
    if (mc.tls.auditLevel != AuditLevel::Off)
        std::printf("audit              %llu invariant checks, 0 "
                    "violations\n",
                    static_cast<unsigned long long>(r.auditChecks));
    if (a.has("det-probe")) {
        // Canonical per-stage digests (base/dethash.h): the capture
        // digest covers the loaded trace bytes, the replay digest the
        // full RunResult. Two replays of the same trace file must
        // print identical lines whatever the machine's thread count.
        std::printf("det-probe          capture=%016llx replay=%016llx\n",
                    static_cast<unsigned long long>(
                        det::hashWorkloadTrace(w)),
                    static_cast<unsigned long long>(
                        det::hashRunResult(r)));
    }
    printRun(r);
    if (a.has("profile"))
        std::printf("\n%s", m.profiler().reportText(12).c_str());
    if (a.has("stats"))
        m.dumpStats(std::cout);
    return 0;
}

/** Executor sized from --jobs (default 1; 0 = one per core). */
sim::SimExecutor
executorOf(const CliArgs &a)
{
    return sim::SimExecutor(static_cast<unsigned>(a.num("jobs", 1)));
}

int
cmdFigure5(const CliArgs &a)
{
    tpcc::TxnType type = benchmarkByName(a.str("benchmark"));
    sim::ExperimentConfig cfg = experimentConfig(a);
    cfg.machine = machineConfig(a);
    sim::SharedTraces traces =
        sim::captureTracesShared(type, cfg, a.str("trace-cache"));
    sim::SimExecutor ex = executorOf(a);
    sim::Figure5Row row = sim::runFigure5(type, cfg, *traces, ex);
    sim::printFigure5Row(std::cout, row);
    return 0;
}

int
cmdFigure6(const CliArgs &a)
{
    tpcc::TxnType type = benchmarkByName(a.str("benchmark"));
    sim::ExperimentConfig cfg = experimentConfig(a);
    cfg.machine = machineConfig(a);

    const std::vector<unsigned> counts = {2, 4, 8};
    const std::vector<std::uint64_t> spacings = {1000,  2500,  5000,
                                                 10000, 25000, 50000};

    sim::SharedTraces traces =
        sim::captureTracesShared(type, cfg, a.str("trace-cache"));
    sim::SimExecutor ex = executorOf(a);
    RunResult seq = sim::runBar(sim::Bar::Sequential, *traces, cfg);
    std::vector<sim::SweepPoint> points =
        sim::runFigure6(type, cfg, counts, spacings, *traces, ex);
    sim::printFigure6(std::cout, tpcc::txnTypeName(type), points,
                      seq.makespan);
    return 0;
}

int
cmdTable2(const CliArgs &a)
{
    const auto &benches = tpcc::allBenchmarks();
    std::vector<sim::ExperimentConfig> cfgs;
    std::vector<sim::SharedTraces> traces;
    for (tpcc::TxnType type : benches) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(type));
        cfgs.push_back(experimentConfig(a));
        traces.push_back(sim::captureTracesShared(
            type, cfgs.back(), a.str("trace-cache")));
    }
    sim::SimExecutor ex = executorOf(a);
    std::vector<sim::Table2Row> rows(benches.size());
    ex.parallelFor(benches.size(), [&](std::size_t i) {
        rows[i] = sim::table2Row(benches[i], cfgs[i], *traces[i]);
    });
    sim::printTable2(std::cout, rows);
    return 0;
}

/**
 * `tlsim bench`: run a full paper artifact (default figure5) across
 * all benchmarks, fanning the simulation points over --jobs workers
 * and reusing --trace-cache snapshots. --benchmark=NAME restricts the
 * run to one benchmark.
 */
int
cmdBench(const CliArgs &a)
{
    std::string artifact = a.str("artifact", "figure5");
    if (artifact == "table2")
        return cmdTable2(a);
    if (artifact != "figure5" && artifact != "figure6")
        fatal("unknown artifact '%s' (figure5|figure6|table2)",
              artifact.c_str());

    std::vector<tpcc::TxnType> benches;
    if (a.has("benchmark")) {
        benches.push_back(benchmarkByName(a.str("benchmark")));
    } else if (artifact == "figure6") {
        benches = {tpcc::TxnType::NewOrder, tpcc::TxnType::NewOrder150,
                   tpcc::TxnType::Delivery,
                   tpcc::TxnType::DeliveryOuter,
                   tpcc::TxnType::StockLevel};
    } else {
        benches = tpcc::allBenchmarks();
    }

    sim::ExperimentConfig cfg = experimentConfig(a);
    cfg.machine = machineConfig(a);

    // Serial capture phase, then parallel simulation per benchmark.
    std::vector<sim::SharedTraces> traces;
    for (tpcc::TxnType type : benches) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(type));
        traces.push_back(sim::captureTracesShared(
            type, cfg, a.str("trace-cache")));
    }

    sim::SimExecutor ex = executorOf(a);
    if (artifact == "figure5") {
        std::vector<sim::Figure5Row> rows;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            rows.push_back(
                sim::runFigure5(benches[b], cfg, *traces[b], ex));
            sim::printFigure5Row(std::cout, rows.back());
        }
        if (!a.has("benchmark"))
            sim::printSpeedupSummary(std::cout, rows);
        return 0;
    }

    const std::vector<unsigned> counts = {2, 4, 8};
    const std::vector<std::uint64_t> spacings = {1000,  2500,  5000,
                                                 10000, 25000, 50000};
    for (std::size_t b = 0; b < benches.size(); ++b) {
        RunResult seq =
            sim::runBar(sim::Bar::Sequential, *traces[b], cfg);
        std::vector<sim::SweepPoint> points = sim::runFigure6(
            benches[b], cfg, counts, spacings, *traces[b], ex);
        sim::printFigure6(std::cout, tpcc::txnTypeName(benches[b]),
                          points, seq.makespan);
    }
    return 0;
}

} // namespace

// The flags each subcommand reads: experimentConfig() and
// machineConfig() options, then the subcommand's own.
#define TLSIM_EXPERIMENT_FLAGS "quick", "txns", "warmup"
#define TLSIM_MACHINE_FLAGS                                              \
    "subthreads", "spacing", "cpus", "adaptive", "no-start-table",       \
        "no-victim", "lazy-updates", "audit"

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    CliArgs a;
    a.parse(argc, argv, 2);
    const std::string cmd = argc >= 2 ? argv[1] : "";
    const char *name = cmd.c_str();
    if (cmd == "capture") {
        a.allowOnly(name, {TLSIM_EXPERIMENT_FLAGS, "benchmark", "out",
                           "original"});
        return cmdCapture(a);
    }
    if (cmd == "info") {
        a.allowOnly(name, {"trace"});
        return cmdInfo(a);
    }
    if (cmd == "replay") {
        a.allowOnly(name, {TLSIM_MACHINE_FLAGS, "trace", "mode",
                           "warmup", "det-probe", "profile", "stats"});
        return cmdReplay(a);
    }
    if (cmd == "figure5" || cmd == "figure6") {
        a.allowOnly(name, {TLSIM_EXPERIMENT_FLAGS, TLSIM_MACHINE_FLAGS,
                           "benchmark", "trace-cache", "jobs"});
        return cmd == "figure5" ? cmdFigure5(a) : cmdFigure6(a);
    }
    if (cmd == "table2") {
        a.allowOnly(name, {TLSIM_EXPERIMENT_FLAGS, "trace-cache", "jobs"});
        return cmdTable2(a);
    }
    if (cmd == "bench") {
        a.allowOnly(name, {TLSIM_EXPERIMENT_FLAGS, TLSIM_MACHINE_FLAGS,
                           "artifact", "benchmark", "trace-cache",
                           "jobs"});
        return cmdBench(a);
    }
    std::fprintf(stderr,
                 "usage: tlsim "
                 "<capture|info|replay|figure5|figure6|table2|bench> "
                 "[--key=value ...]\n");
    return cmd == "help" ? 0 : 1;
}
