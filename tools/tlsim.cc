/**
 * @file
 * tlsim — command-line trace tools for the sub-threads TLS simulator.
 *
 *   tlsim capture  --benchmark=NEW_ORDER --out=no.trace [options]
 *   tlsim info     --trace=no.trace
 *   tlsim replay   --trace=no.trace [machine options]
 *
 * The paper's artifacts (Figure 5, Figure 6, Table 2) come from the
 * bench/ mains: bench_figure5_overall, bench_figure6_sweep and
 * bench_table2_stats.
 *
 * Capture options:
 *   --quick            reduced TPC-C scale
 *   --txns=N           transactions to capture (default: the paper
 *                      preset's per-benchmark count)
 *   --original         capture the untuned, unparallelized build
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
#include <iostream>
#include <string>

#include "base/log.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"

#include "cliargs.h"

using namespace tlsim;

namespace {

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
    tpcc::TxnType type = a.benchmark();
    sim::ExperimentConfig cfg = a.paperConfig(type);

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

/** The --trace file; fatal, naming the file and why, if rejected. */
WorkloadTrace
loadTrace(const CliArgs &a)
{
    const std::string path = a.str("trace", "workload.trace");
    WorkloadTrace w;
    std::string why = sim::readTraceFile(path, &w);
    if (!why.empty())
        fatal("%s: %s", path.c_str(), why.c_str());
    return w;
}

int
cmdInfo(const CliArgs &a)
{
    WorkloadTrace w = loadTrace(a);
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
    WorkloadTrace w = loadTrace(a);
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

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    CliArgs a;
    a.parse(argc, argv, 2);
    const std::string cmd = argc >= 2 ? argv[1] : "";
    const char *name = cmd.c_str();
    if (cmd == "capture") {
        a.allowOnly(name, {"benchmark", "quick", "txns", "out",
                           "original"});
        return cmdCapture(a);
    }
    if (cmd == "info") {
        a.allowOnly(name, {"trace"});
        return cmdInfo(a);
    }
    if (cmd == "replay") {
        a.allowOnly(name, {"subthreads", "spacing", "cpus", "adaptive",
                           "no-start-table", "no-victim", "lazy-updates",
                           "audit", "trace", "mode", "warmup",
                           "det-probe", "profile", "stats"});
        return cmdReplay(a);
    }
    std::fprintf(stderr,
                 "usage: tlsim <capture|info|replay> [--key=value ...]\n"
                 "(Figure 5, Figure 6 and Table 2: run the bench/ "
                 "mains)\n");
    return cmd == "help" ? 0 : 1;
}
