/**
 * @file
 * tlscheck — offline trace checker and simulator cross-validator.
 *
 * Mode 1, raw trace:
 *   tlscheck --trace=FILE [--line-bytes=N]
 * Replays the captured trace through the independent happens-before
 * checker (src/verify/checker) and diffs its per-record conflict /
 * covered-load classification against a TraceIndex built in-process
 * from the same trace. Any disagreement is a hard error: a
 * mis-classified line would make the simulator skip violation
 * scans.
 *
 * Mode 2, benchmark:
 *   tlscheck --benchmark=NAME [--quick] [--txns=N] [--warmup=N]
 *            [--trace-cache=DIR] [--audit=off|commit|full]
 * Captures (or reloads) the benchmark's traces, checks both against
 * their shared indexes, then runs the full TLS simulation and
 * validates the RunResult against the checker's ground truth: commit
 * order serializable, violation bookkeeping consistent, and every
 * violated line independently proven a RAW candidate. --audit
 * additionally attaches the runtime invariant auditor to the
 * simulation. The traces are sized by the paper preset the bench/
 * mains use, so `--quick --txns=N` shares their trace-cache entries;
 * --warmup overrides the preset's warm-up.
 *
 * A flag the mode does not read, or a non-numeric value for a numeric
 * flag, is a fatal error.
 *
 * Exit status: 0 all checks passed, 1 any mismatch or bad flag.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/log.h"
#include "core/machine.h"
#include "core/traceindex.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"
#include "verify/auditor.h"
#include "verify/checker.h"

#include "cliargs.h"

using namespace tlsim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tlscheck --trace=FILE [--line-bytes=N]\n"
        "       tlscheck --benchmark=NAME [--quick] [--txns=N]\n"
        "                [--warmup=N] [--trace-cache=DIR]\n"
        "                [--audit=off|commit|full]\n");
    return 2;
}

int
report(const char *what, const std::vector<std::string> &errors)
{
    if (errors.empty()) {
        std::printf("tlscheck: %s OK\n", what);
        return 0;
    }
    std::printf("tlscheck: %s FAILED (%zu mismatches)\n", what,
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
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.str("trace"), &w))
        fatal("not a tlsim trace file: %s", a.str("trace").c_str());
    auto line_bytes =
        static_cast<unsigned>(a.num("line-bytes", MemConfig{}.lineBytes));

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
    cfg.warmupTxns =
        static_cast<unsigned>(a.num("warmup", cfg.warmupTxns));
    cfg.machine.tls.auditLevel =
        parseAuditLevel(a.str("audit", "off"));

    std::fprintf(stderr, "tlscheck: capturing %s...\n",
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

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    CliArgs a;
    a.parse(argc, argv, 1);
    if (a.has("trace")) {
        a.allowOnly("tlscheck --trace", {"trace", "line-bytes"});
        return checkTraceFile(a);
    }
    if (a.has("benchmark")) {
        a.allowOnly("tlscheck --benchmark",
                    {"benchmark", "quick", "txns", "warmup",
                     "trace-cache", "audit"});
        return checkBenchmark(a);
    }
    return usage();
}
