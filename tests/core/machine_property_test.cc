/**
 * @file
 * Property tests: randomized synthetic workloads (seeded, so failures
 * reproduce) swept across machine configurations. Every run must
 * terminate, keep the cycle-accounting invariant, commit every epoch,
 * and be deterministic.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

/** Generates a random multi-transaction workload with planted shared
 *  accesses, escapes, latches, and pointer chases. */
WorkloadTrace
randomWorkload(std::uint64_t seed, std::vector<std::uint64_t> &mem)
{
    Rng rng(seed);
    Pc pc = sitePc(SiteId::FuzzSite);
    Tracer::Options o;
    o.parallelMode = true;
    o.spawnOverheadInsts = 50;
    Tracer t(o);
    TracedRegion region(t, mem.data(), mem.size() * sizeof(mem[0]));

    unsigned txns = 1 + static_cast<unsigned>(rng.uniform(0, 2));
    for (unsigned tx = 0; tx < txns; ++tx) {
        t.txnBegin();
        t.compute(pc, 200 + rng.uniform(0, 400));

        unsigned loops = 1 + static_cast<unsigned>(rng.uniform(0, 1));
        for (unsigned l = 0; l < loops; ++l) {
            t.loopBegin();
            unsigned epochs =
                static_cast<unsigned>(rng.uniform(0, 9));
            for (unsigned e = 0; e < epochs; ++e) {
                t.iterBegin();
                unsigned ops =
                    10 + static_cast<unsigned>(rng.uniform(0, 60));
                bool in_escape = false;
                bool holding = false;
                std::uint64_t latch_id = 0;
                for (unsigned op = 0; op < ops; ++op) {
                    switch (rng.uniform(0, 9)) {
                      case 0:
                      case 1:
                        t.compute(pc, 20 + rng.uniform(0, 300));
                        break;
                      case 2: // private load
                        t.load(pc,
                               &mem[4096 + 512 * e +
                                    rng.uniform(0, 255)],
                               8, rng.chance(0.3));
                        break;
                      case 3: // shared load (dependence!)
                        t.load(pc, &mem[rng.uniform(0, 63)], 8);
                        break;
                      case 4: // private store
                        t.store(pc,
                                &mem[4096 + 512 * e + 256 +
                                     rng.uniform(0, 255)],
                                8);
                        break;
                      case 5: // shared store (dependence!)
                        t.store(pc, &mem[rng.uniform(0, 63)], 8);
                        break;
                      case 6:
                        t.branch(pc, rng.chance(0.5));
                        break;
                      case 7: // escaped latch region
                        if (!in_escape) {
                            in_escape = true;
                            t.escapeBegin(pc);
                            latch_id = 900 + rng.uniform(0, 3);
                            t.latchAcquire(pc, latch_id);
                            holding = true;
                            t.compute(pc, 50 + rng.uniform(0, 200));
                        }
                        break;
                      case 8:
                        if (in_escape) {
                            if (holding) {
                                t.latchRelease(pc, latch_id);
                                holding = false;
                            }
                            t.escapeEnd(pc);
                            in_escape = false;
                        }
                        break;
                    }
                }
                if (in_escape) {
                    if (holding)
                        t.latchRelease(pc, latch_id);
                    t.escapeEnd(pc);
                }
            }
            t.loopEnd();
            t.compute(pc, 100);
        }
        t.txnEnd();
    }
    return t.takeWorkload();
}

std::uint64_t
countEpochs(const WorkloadTrace &w)
{
    std::uint64_t n = 0;
    for (const auto &txn : w.txns)
        n += txn.epochCount();
    return n;
}

struct Params
{
    unsigned k;
    std::uint64_t spacing;
    ExecMode mode;
    bool startTable;
    bool aggressive;
    std::uint64_t seed;
};

class MachineProperty : public ::testing::TestWithParam<Params>
{
};

TEST_P(MachineProperty, InvariantsHoldOnRandomWorkloads)
{
    const Params p = GetParam();
    auto mem = std::make_unique<std::vector<std::uint64_t>>(16384);
    WorkloadTrace w = randomWorkload(p.seed, *mem);

    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = p.k;
    cfg.tls.subthreadSpacing = p.spacing;
    cfg.tls.useStartTable = p.startTable;
    cfg.tls.aggressiveUpdates = p.aggressive;

    TlsMachine m(cfg);
    RunResult r1 = m.run(w, p.mode);
    RunResult r2 = m.run(w, p.mode);

    // Terminates with every epoch committed.
    if (p.mode != ExecMode::Serial)
        EXPECT_EQ(r1.epochs, countEpochs(w));
    EXPECT_EQ(r1.txns, w.txns.size());

    // Cycle accounting: every CPU cycle lands in exactly one bucket.
    EXPECT_EQ(r1.total.total(), r1.makespan * cfg.tls.numCpus);

    // Non-speculative modes never fail speculation.
    if (p.mode != ExecMode::Tls) {
        EXPECT_EQ(r1.primaryViolations, 0u);
        EXPECT_EQ(r1.total[Cat::Failed], 0u);
    }

    // Determinism.
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.primaryViolations, r2.primaryViolations);
    EXPECT_EQ(r1.squashes, r2.squashes);
    EXPECT_EQ(r1.rewoundInsts, r2.rewoundInsts);
    EXPECT_EQ(r1.total[Cat::Failed], r2.total[Cat::Failed]);

    // Sub-thread spawning respects the context budget.
    if (r1.epochs > 0)
        EXPECT_LE(r1.subthreadsStarted, r1.epochs * (p.k - 1));
}

std::vector<Params>
makeParams()
{
    std::vector<Params> out;
    std::uint64_t seed = 1000;
    for (unsigned k : {1u, 2u, 8u}) {
        for (std::uint64_t spacing : {500ull, 5000ull}) {
            for (ExecMode mode :
                 {ExecMode::Serial, ExecMode::Tls,
                  ExecMode::NoSpeculation}) {
                out.push_back({k, spacing, mode, true, true, ++seed});
            }
        }
    }
    // Config corners under the Tls mode.
    out.push_back({8, 1000, ExecMode::Tls, false, true, 7771});
    out.push_back({8, 1000, ExecMode::Tls, true, false, 7772});
    out.push_back({4, 2000, ExecMode::Tls, false, false, 7773});
    // Extra seeds at the baseline configuration.
    for (std::uint64_t s : {42ull, 43ull, 44ull, 45ull, 46ull})
        out.push_back({8, 5000, ExecMode::Tls, true, true, s});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineProperty,
                         ::testing::ValuesIn(makeParams()));

/** The same workload must produce strictly less (or equal) failed
 *  work with more sub-thread contexts, on average over seeds. */
TEST(MachinePropertyAggregate, SubthreadsNeverIncreaseFailedWorkMuch)
{
    auto mem = std::make_unique<std::vector<std::uint64_t>>(16384);
    std::uint64_t failed1 = 0, failed8 = 0;
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        WorkloadTrace w = randomWorkload(seed, *mem);
        MachineConfig c1;
        c1.tls.subthreadsPerThread = 1;
        c1.tls.subthreadSpacing = 1000;
        MachineConfig c8 = c1;
        c8.tls.subthreadsPerThread = 8;
        TlsMachine m1(c1), m8(c8);
        failed1 += m1.run(w, ExecMode::Tls).total[Cat::Failed];
        failed8 += m8.run(w, ExecMode::Tls).total[Cat::Failed];
    }
    EXPECT_LE(failed8, failed1 + failed1 / 10);
}

} // namespace
} // namespace tlsim
