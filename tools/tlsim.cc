/**
 * @file
 * tlsim — the trace CLI of the sub-threads TLS simulator: capture a
 * TPC-C benchmark's trace, print its shape, replay it on a configured
 * machine, or check it offline. kUsage lists every subcommand's flags.
 *
 * The paper's artifacts (Figure 5, Figure 6, Table 2) come from the
 * bench/ mains: bench_figure5_overall, bench_figure6_sweep and
 * bench_table2_stats.
 *
 * `check` is the offline trace checker and simulator cross-validator.
 * With --trace it replays the file through the independent
 * happens-before checker (src/verify/checker) and diffs its per-record
 * conflict / covered-load classification against a TraceIndex built
 * in-process from the same trace. Any disagreement is a hard error: a
 * mis-classified line would make the simulator skip violation scans.
 * With --benchmark it captures (or reloads) the benchmark's traces,
 * checks both against their shared indexes, then runs the full TLS
 * simulation and validates the RunResult against the checker's ground
 * truth: commit order serializable, violation bookkeeping consistent,
 * and every violated line independently proven a RAW candidate. The
 * traces are sized by the paper preset the bench/ mains use, so
 * `--quick --txns=N` shares their trace-cache entries.
 *
 * Exit status: 0 success, 1 an unreadable trace or a failed check,
 * 2 usage error (tools/cliargs.h).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/addr.h"
#include "base/log.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "core/traceindex.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"
#include "verify/checker.h"

#include "cliargs.h"

using namespace tlsim;

namespace {

const char kUsage[] =
    "usage: tlsim capture --benchmark=NAME [--quick] [--txns=N] "
    "[--original] [--out=FILE]\n"
    "       tlsim info    [--trace=FILE]\n"
    "       tlsim replay  [--trace=FILE] [machine options] [--warmup=N]\n"
    "                     [--det-probe] [--profile] [--stats]\n"
    "       tlsim check   --trace=FILE [--line-bytes=N]\n"
    "       tlsim check   --benchmark=NAME [--quick] [--txns=N] "
    "[--warmup=N]\n"
    "                     [--trace-cache=DIR] [--audit=LEVEL]\n"
    "  --quick        reduced TPC-C scale\n"
    "  --txns=N       transactions to capture (default: the paper "
    "preset's)\n"
    "  --original     capture the untuned, unparallelized build\n"
    "  --warmup=N     transactions excluded from statistics\n"
    "  --det-probe    print canonical capture/replay result digests\n"
    "  --profile      print the dependence profiler afterwards\n"
    "  --stats        dump the machine's statistics afterwards\n"
    "machine options:\n"
    "  --mode=tls|serial|nospec   execution mode (default tls)\n"
    "  --subthreads=K --spacing=N --cpus=N --adaptive\n"
    "  --no-start-table --no-victim --lazy-updates\n"
    "  --audit=off|commit|full    protocol invariant auditor level\n"
    "(Figure 5, Figure 6 and Table 2: run the bench/ mains)\n";

MachineConfig
machineConfig(const CliArgs &a)
{
    MachineConfig mc;
    mc.tls.subthreadsPerThread =
        a.unum("subthreads", mc.tls.subthreadsPerThread);
    mc.tls.subthreadSpacing =
        a.num("spacing", mc.tls.subthreadSpacing);
    mc.tls.numCpus = a.unum("cpus", mc.tls.numCpus);
    mc.tls.adaptiveSpacing = a.flag("adaptive");
    if (a.flag("no-start-table"))
        mc.tls.useStartTable = false;
    if (a.flag("no-victim"))
        mc.tls.useVictimCache = false;
    if (a.flag("lazy-updates"))
        mc.tls.aggressiveUpdates = false;
    mc.tls.auditLevel = a.audit();
    return mc;
}

ExecMode
execMode(const CliArgs &a)
{
    const std::string m = a.oneOf("mode", "tls", {"tls", "serial",
                                                  "nospec"});
    if (m == "serial")
        return ExecMode::Serial;
    if (m == "nospec")
        return ExecMode::NoSpeculation;
    return ExecMode::Tls;
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

    const bool tls = !a.flag("original");
    tpcc::CaptureOptions opts = sim::captureOptions(cfg, tls, tls);
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
    MachineConfig mc = machineConfig(a);
    ExecMode mode = execMode(a);
    unsigned warmup = a.unum("warmup", 0);
    WorkloadTrace w = loadTrace(a);

    TlsMachine m(mc);
    RunResult r = verify::runWithAudit(m, w, mode, warmup);
    if (mc.tls.auditLevel != AuditLevel::Off)
        std::printf("audit              %llu invariant checks, 0 "
                    "violations\n",
                    static_cast<unsigned long long>(r.auditChecks));
    if (a.flag("det-probe")) {
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
    if (a.flag("profile"))
        std::printf("\n%s", m.profiler().reportText(12).c_str());
    if (a.flag("stats"))
        m.dumpStats(std::cout);
    return 0;
}

int
report(const char *what, const std::vector<std::string> &errors)
{
    if (errors.empty()) {
        std::printf("tlsim check: %s OK\n", what);
        return 0;
    }
    std::printf("tlsim check: %s FAILED (%zu mismatches)\n", what,
                errors.size());
    for (const std::string &e : errors)
        std::printf("  %s\n", e.c_str());
    return 1;
}

void
printSummary(const char *name, const verify::CheckResult &chk)
{
    std::printf("%s: %llu parallel epochs, %llu exposed loads, "
                "lines %llu private / %llu read-shared / %llu "
                "conflict (%zu RAW candidates)\n",
                name,
                static_cast<unsigned long long>(chk.parallelEpochs),
                static_cast<unsigned long long>(chk.exposedLoads),
                static_cast<unsigned long long>(chk.epochPrivate),
                static_cast<unsigned long long>(chk.readShared),
                static_cast<unsigned long long>(chk.conflict),
                chk.rawLines.size());
}

int
checkTraceFile(const CliArgs &a)
{
    const unsigned line_bytes =
        a.unum("line-bytes", MemConfig{}.lineBytes);
    if (!isPowerOf2(line_bytes))
        a.usageError("--line-bytes must be a power of two");
    WorkloadTrace w = loadTrace(a);

    verify::CheckResult chk = verify::checkTrace(w, line_bytes);
    printSummary(a.str("trace").c_str(), chk);

    TraceIndex idx(w, line_bytes);
    return report("index diff", verify::diffAgainstIndex(chk, idx, w));
}

int
checkBenchmark(const CliArgs &a)
{
    tpcc::TxnType type = a.benchmark();

    sim::ExperimentConfig cfg = a.paperConfig(type);
    cfg.warmupTxns = a.unum("warmup", cfg.warmupTxns);
    cfg.machine.tls.auditLevel = a.audit();

    std::fprintf(stderr, "tlsim check: capturing %s...\n",
                 tpcc::txnTypeName(type));
    sim::SharedTraces traces =
        sim::captureTracesShared(type, cfg, a.str("trace-cache"));
    unsigned line_bytes = cfg.machine.mem.lineBytes;

    int rc = 0;

    // Independent classification of both captures, diffed against the
    // indexes the simulator will trust.
    verify::CheckResult chk_orig =
        verify::checkTrace(traces->original, line_bytes);
    printSummary("original trace", chk_orig);
    rc |= report("original index diff",
                 verify::diffAgainstIndex(chk_orig,
                                          *traces->originalIndex,
                                          traces->original));

    verify::CheckResult chk_tls =
        verify::checkTrace(traces->tls, line_bytes);
    printSummary("tls trace", chk_tls);
    rc |= report("tls index diff",
                 verify::diffAgainstIndex(chk_tls, *traces->tlsIndex,
                                          traces->tls));

    // Full TLS simulation (auditor attached when --audit is not off),
    // validated against the checker's ground truth.
    TlsMachine m(cfg.machine);
    RunResult r =
        verify::runWithAudit(m, traces->tls, ExecMode::Tls,
                             cfg.warmupTxns, traces->tlsIndex.get());
    std::printf("simulation: %llu epochs, %llu primary violations, "
                "%llu audit checks\n",
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.primaryViolations),
                static_cast<unsigned long long>(r.auditChecks));
    rc |= report("run diff", verify::diffAgainstRun(chk_tls, r));
    return rc;
}

int
cmdCheck(const CliArgs &a)
{
    if (a.has("trace")) {
        a.allowOnly({"trace", "line-bytes"});
        return checkTraceFile(a);
    }
    if (a.has("benchmark")) {
        a.allowOnly({"benchmark", "quick", "txns", "warmup",
                     "trace-cache", "audit"});
        return checkBenchmark(a);
    }
    a.usageError("expects --trace=FILE or --benchmark=NAME");
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const std::string cmd = argc >= 2 ? argv[1] : "";
    if (cmd == "help") {
        std::fputs(kUsage, stderr);
        return 0;
    }
    CliArgs a(cmd.empty() ? "tlsim" : "tlsim " + cmd, kUsage);
    a.parse(argc, argv, 2);
    if (cmd == "capture") {
        a.allowOnly({"benchmark", "quick", "txns", "out", "original"});
        return cmdCapture(a);
    }
    if (cmd == "info") {
        a.allowOnly({"trace"});
        return cmdInfo(a);
    }
    if (cmd == "replay") {
        a.allowOnly({"subthreads", "spacing", "cpus", "adaptive",
                     "no-start-table", "no-victim", "lazy-updates",
                     "audit", "trace", "mode", "warmup", "det-probe",
                     "profile", "stats"});
        return cmdReplay(a);
    }
    if (cmd == "check")
        return cmdCheck(a);
    a.usageError(cmd.empty() ? "missing subcommand"
                             : "unknown subcommand '" + cmd + "'");
}
