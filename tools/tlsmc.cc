/**
 * @file
 * tlsmc — bounded exhaustive model checker for the sub-thread TLS
 * protocol (DESIGN.md Section 4.4).
 *
 * Modes:
 *   --sweep   (default) enumerate every canonical interacting program
 *             tuple at the given bounds and explore every interleaving
 *             of each (DPOR unless --no-dpor). Any invariant,
 *             serializability, or liveness violation fails the run and
 *             prints the reproducing schedule.
 *   --bisim   sample random (programs, schedule) pairs and replay each
 *             schedule bit-for-bit through the real TlsMachine via the
 *             ScheduleOracle seam, under the full protocol Auditor.
 *   --mutate=<wrong-start-table|missed-secondary|premature-recycle>
 *             inject the named protocol bug into the model and sweep
 *             until it is caught; exits 0 only if a violation is
 *             found (the regression corpus of the modelcheck tests).
 *   --cross-check  after each DPOR exploration, re-explore naively
 *             and require the same set of terminal outcomes
 *             (empirical soundness check of the reduction).
 *
 * Flags parse through tools/cliargs.h. A model bound (--epochs, --k,
 * --lines, --len) of zero or above the model's inline cap is a usage
 * error: a zero bound would explore nothing and pass.
 *
 * Exit status: 0 success, 1 violation found (or, for --mutate, the
 * seeded bug escaped), 2 usage error.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "verify/modelcheck/bisim.h"
#include "verify/modelcheck/explorer.h"
#include "verify/modelcheck/model.h"
#include "verify/modelcheck/programs.h"

#include "cliargs.h"

using namespace tlsim;
using namespace tlsim::verify::mc;

namespace {

std::string
usage(const char *argv0)
{
    return std::string("usage: ") + argv0 +
           " [--sweep|--bisim] [options]\n"
           "  --epochs=N --k=K --lines=M --len=L   model bounds\n"
           "  --spacing=S --tick=T                 spawn spacing / tick cost\n"
           "  --whole-thread                       Figure 4(a): no start table\n"
           "  --no-dpor                            naive full enumeration\n"
           "  --cross-check                        DPOR vs naive outcome sets\n"
           "  --mutate=<name>                      seeded-bug mode\n"
           "  --samples=N --seed=S                 bisim sampling\n"
           "  --max-steps=N                        path depth bound\n"
           "  --shard=I/N                          explore tuples I mod N\n"
           "  --progress                           progress lines to stderr\n"
           "  --json=PATH                          write a JSON summary\n"
           "  --quiet\n";
}

/** Model bound `k`: 1..max (a zero bound explores nothing). */
unsigned
bound(const CliArgs &a, const char *k, unsigned dflt, unsigned max)
{
    const auto v = static_cast<unsigned>(a.num(k, dflt, max));
    if (v == 0)
        a.usageError(std::string("--") + k + " must be at least 1");
    return v;
}

Mutation
mutation(const CliArgs &a)
{
    if (!a.has("mutate"))
        return Mutation::None;
    const std::string name = a.str("mutate");
    for (Mutation m : {Mutation::WrongStartTable,
                       Mutation::MissedSecondary,
                       Mutation::PrematureRecycle})
        if (name == mutationName(m))
            return m;
    a.usageError("bad value for --mutate: '" + name +
                 "' (wrong-start-table|missed-secondary|"
                 "premature-recycle)");
}

/** --shard=I/N: explore tuples I mod N. */
struct Shard
{
    unsigned index = 0;
    unsigned count = 1;
};

Shard
shard(const CliArgs &a)
{
    const std::string v = a.str("shard", "0/1");
    const auto slash = v.find('/');
    if (slash != std::string::npos) {
        auto i = CliArgs::toNum(std::string_view(v).substr(0, slash));
        auto n = CliArgs::toNum(std::string_view(v).substr(slash + 1));
        if (i && n && *i < *n && *n <= ~0u)
            return {static_cast<unsigned>(*i),
                    static_cast<unsigned>(*n)};
    }
    a.usageError("bad value for --shard: '" + v + "' (I/N, I < N)");
}

struct SweepTotals
{
    std::uint64_t tuples = 0;
    std::uint64_t transitions = 0;
    std::uint64_t schedules = 0;
    std::uint64_t sleepBlocked = 0;
    std::uint64_t naiveTransitions = 0; ///< cross-check mode only
    bool caught = false;
    ModelViolation violation;
    std::vector<Program> violationPrograms;
};

/**
 * Explore every interacting program tuple of `len` ops per epoch in
 * `sh` (DPOR unless xcfg.dpor is off); xcfg.collectOutcomes re-explores
 * each naively and compares the terminal outcomes.
 */
int
runSweep(const ModelConfig &cfg, unsigned len, const ExploreConfig &xcfg,
         Shard sh, bool progress, SweepTotals &tot)
{
    auto families =
        programFamilies(cfg.epochs, len, cfg.lines, /*interacting=*/true);
    // A violation fails a plain sweep and passes a seeded-bug one.
    const int violation_rc = cfg.mutation == Mutation::None ? 1 : 0;

    for (std::size_t fi = 0; fi < families.size(); ++fi) {
        if (fi % sh.count != sh.index)
            continue;
        const auto &programs = families[fi];
        ++tot.tuples;
        if (progress)
            std::fprintf(stderr,
                         "tlsmc sweep: tuple %zu (%llu done), %llu "
                         "transitions, %llu schedules\n",
                         fi,
                         static_cast<unsigned long long>(tot.tuples),
                         static_cast<unsigned long long>(tot.transitions),
                         static_cast<unsigned long long>(tot.schedules));
        ExploreResult res = explore(cfg, programs, xcfg);
        tot.transitions += res.stats.transitions;
        tot.schedules += res.stats.schedulesCompleted;
        tot.sleepBlocked += res.stats.sleepBlocked;
        if (!res.ok()) {
            tot.caught = true;
            tot.violation = res.violations.front();
            tot.violationPrograms = programs;
            return violation_rc;
        }
        if (xcfg.collectOutcomes && xcfg.dpor) {
            ExploreConfig ncfg = xcfg;
            ncfg.dpor = false;
            ExploreResult naive = explore(cfg, programs, ncfg);
            tot.naiveTransitions += naive.stats.transitions;
            if (!naive.ok()) {
                tot.caught = true;
                tot.violation = naive.violations.front();
                tot.violationPrograms = programs;
                return violation_rc;
            }
            if (naive.outcomes != res.outcomes) {
                tot.caught = true;
                tot.violation = {"dpor.unsound",
                                 "naive and DPOR explorations reach "
                                 "different terminal outcomes",
                                 {}};
                tot.violationPrograms = programs;
                return 1;
            }
        }
    }
    // A seeded mutation that no sweep caught is itself a failure.
    return 1 - violation_rc;
}

const char *
opToString(const Op &op)
{
    static char buf[16];
    switch (op.kind) {
      case OpKind::Tick: return "T";
      case OpKind::Load:
        std::snprintf(buf, sizeof buf, "L%u", op.line);
        return buf;
      case OpKind::Store:
        std::snprintf(buf, sizeof buf, "S%u", op.line);
        return buf;
    }
    return "?";
}

void
printPrograms(const std::vector<Program> &programs)
{
    for (std::size_t e = 0; e < programs.size(); ++e) {
        std::fprintf(stderr, "  epoch %zu:", e);
        for (const Op &op : programs[e])
            std::fprintf(stderr, " %s", opToString(op));
        std::fprintf(stderr, "\n");
    }
}

void
writeJson(const std::string &path, bool bisim, const ModelConfig &cfg,
          unsigned len, bool dpor, const SweepTotals &tot,
          const BisimSweep &bs, int status)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "tlsmc: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"tlsmc-v1\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"bounds\": {\"epochs\": %u, \"k\": %u, "
                 "\"lines\": %u, \"len\": %u},\n"
                 "  \"dpor\": %s,\n"
                 "  \"mutation\": \"%s\",\n"
                 "  \"tuples\": %llu,\n"
                 "  \"transitions\": %llu,\n"
                 "  \"schedules\": %llu,\n"
                 "  \"naive_transitions\": %llu,\n"
                 "  \"bisim_samples\": %u,\n"
                 "  \"bisim_failures\": %u,\n"
                 "  \"violations\": %d,\n"
                 "  \"status\": %d\n"
                 "}\n",
                 bisim ? "bisim" : "sweep", cfg.epochs, cfg.k, cfg.lines,
                 len, dpor ? "true" : "false", mutationName(cfg.mutation),
                 static_cast<unsigned long long>(tot.tuples),
                 static_cast<unsigned long long>(tot.transitions),
                 static_cast<unsigned long long>(tot.schedules),
                 static_cast<unsigned long long>(tot.naiveTransitions),
                 bs.samples, bs.failures, tot.caught ? 1 : 0, status);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs a("tlsmc", usage(argv[0]));
    a.parse(argc, argv, 1);
    a.allowOnly({"sweep", "bisim", "no-dpor", "cross-check",
                 "whole-thread", "quiet", "progress", "shard", "epochs",
                 "k", "lines", "len", "spacing", "tick", "samples", "seed",
                 "max-steps", "json", "mutate"});
    const bool bisim = a.flag("bisim");
    if (bisim && a.flag("sweep"))
        a.usageError("--sweep and --bisim are exclusive");

    ModelConfig cfg;
    cfg.epochs = bound(a, "epochs", 3, kMaxEpochs);
    cfg.k = bound(a, "k", 2, kMaxK);
    cfg.lines = bound(a, "lines", 2, kMaxLines);
    cfg.spacing = a.num("spacing", 1);
    cfg.tickInsts = a.num("tick", 100);
    cfg.useStartTable = !a.flag("whole-thread"); // Figure 4(a)
    cfg.mutation = mutation(a);
    const unsigned len = bound(a, "len", 2, kMaxLen);
    if (bisim && cfg.mutation != Mutation::None)
        a.usageError("--mutate is a model-only mode");

    ExploreConfig xcfg;
    xcfg.dpor = !a.flag("no-dpor");
    xcfg.maxSteps = a.num("max-steps", 0);
    xcfg.collectOutcomes = a.flag("cross-check");
    const Shard sh = shard(a);
    const bool progress = a.flag("progress");
    const bool quiet = a.flag("quiet");
    const unsigned samples = a.unum("samples", 200);
    const std::uint64_t seed =
        a.num("seed", 0x5eed, ~std::uint64_t{0}, /*base=*/0);
    const std::string json = a.str("json");

    SweepTotals tot;
    BisimSweep bs;
    int status = 0;

    if (bisim) {
        bs = sampleBisim(cfg, samples, seed, len);
        status = bs.ok() ? 0 : 1;
        if (!quiet) {
            std::fprintf(stderr,
                         "tlsmc bisim: %u samples, %llu model steps, "
                         "%llu machine audit checks, %u divergences\n",
                         bs.samples,
                         static_cast<unsigned long long>(bs.modelSteps),
                         static_cast<unsigned long long>(bs.auditChecks),
                         bs.failures);
            if (!bs.ok())
                std::fprintf(stderr, "tlsmc bisim: first failure: %s\n",
                             bs.firstFailure.c_str());
        }
    } else {
        status = runSweep(cfg, len, xcfg, sh, progress, tot);
        if (!quiet) {
            std::fprintf(
                stderr,
                "tlsmc sweep: %llu tuples, %llu transitions, "
                "%llu schedules%s\n",
                static_cast<unsigned long long>(tot.tuples),
                static_cast<unsigned long long>(tot.transitions),
                static_cast<unsigned long long>(tot.schedules),
                xcfg.dpor ? " (dpor)" : " (naive)");
            if (tot.caught) {
                std::fprintf(stderr, "tlsmc sweep: violation: %s\n",
                             tot.violation.toString().c_str());
                printPrograms(tot.violationPrograms);
            } else if (cfg.mutation != Mutation::None) {
                std::fprintf(stderr,
                             "tlsmc sweep: seeded mutation '%s' was "
                             "NOT caught\n",
                             mutationName(cfg.mutation));
            }
        }
    }

    if (!json.empty())
        writeJson(json, bisim, cfg, len, xcfg.dpor, tot, bs, status);
    return status;
}
