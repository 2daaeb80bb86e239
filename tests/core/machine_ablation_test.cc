/**
 * @file
 * Behavioural tests for the machine's ablation switches: lazy update
 * propagation (violations deferred to commit), L1 sub-thread
 * awareness, adaptive sub-thread spacing, and victim-cache toggling.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

class Builder
{
  public:
    Builder() : mem_(16384, 0)
    {
        pc_ = sitePc(SiteId::AblationSite);
    }

    void *addr(std::size_t w) { return &mem_.at(w); }
    Pc pc() const { return pc_; }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        Tracer::Options o;
        o.parallelMode = true;
        Tracer t(o);
        TracedRegion region(t, mem_.data(), mem_.size() * sizeof(mem_[0]));
        t.txnBegin();
        t.loopBegin();
        for (const auto &b : bodies) {
            t.iterBegin();
            b(t);
        }
        t.loopEnd();
        t.txnEnd();
        return t.takeWorkload();
    }

  private:
    std::vector<std::uint64_t> mem_;
    Pc pc_;
};

MachineConfig
cfgK(unsigned k, std::uint64_t spacing = 1000)
{
    MachineConfig c;
    c.tls.subthreadsPerThread = k;
    c.tls.subthreadSpacing = spacing;
    return c;
}

TEST(LazyUpdates, ViolationsDetectedLaterWasteMoreWork)
{
    Builder b;
    // Writer stores early in its epoch; the reader's exposed load
    // happens even earlier. Aggressive propagation violates the reader
    // at the store (cheap); lazy propagation only at the writer's
    // commit, after the reader wasted its whole epoch.
    // A leading epoch keeps the writer speculative (the oldest epoch
    // is non-speculative and always checks eagerly).
    auto pad = [&b](Tracer &t) { t.compute(b.pc(), 40000); };
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 2000);
        t.store(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 30000);
    };
    auto reader = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 30000);
    };
    auto w = b.loopTxn({pad, writer, reader});

    MachineConfig eager = cfgK(8);
    MachineConfig lazy = cfgK(8);
    lazy.tls.aggressiveUpdates = false;

    TlsMachine m1(eager), m2(lazy);
    RunResult re = m1.run(w, ExecMode::Tls);
    RunResult rl = m2.run(w, ExecMode::Tls);

    ASSERT_GE(re.primaryViolations, 1u);
    ASSERT_GE(rl.primaryViolations, 1u);
    EXPECT_GT(rl.total[Cat::Failed], re.total[Cat::Failed]);
    EXPECT_GE(rl.makespan, re.makespan);
    EXPECT_EQ(rl.total.total(), rl.makespan * 4);
}

TEST(LazyUpdates, DeferredChecksRewindWithTheirSubthread)
{
    Builder b;
    // The reader both stores (deferred check pending) and gets
    // violated itself; the deferred entries from rewound sub-threads
    // must be discarded, or phantom violations would fire at commit.
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 20000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto middle = [&b](Tracer &t) {
        t.compute(b.pc(), 3000);
        t.load(b.pc(), b.addr(64), 8); // violated by writer
        t.compute(b.pc(), 3000);
        t.store(b.pc(), b.addr(128), 8); // deferred check source
        t.compute(b.pc(), 9000);
    };
    auto tail = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(128), 8);
        t.compute(b.pc(), 15000);
    };
    auto w = b.loopTxn({writer, middle, tail});

    MachineConfig lazy = cfgK(8);
    lazy.tls.aggressiveUpdates = false;
    TlsMachine m(lazy);
    RunResult r1 = m.run(w, ExecMode::Tls);
    RunResult r2 = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r1.makespan, r2.makespan); // deterministic
    EXPECT_EQ(r1.epochs, 3u);
    EXPECT_EQ(r1.total.total(), r1.makespan * 4);
}

TEST(L1SubthreadAware, SkipsTheSquashFlush)
{
    Builder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 15000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8);
        // Lots of stores whose L1 lines a squash would flush.
        for (int i = 0; i < 200; ++i) {
            t.store(b.pc(), b.addr(1024 + i * 4), 8);
            t.compute(b.pc(), 60);
        }
    };
    auto w = b.loopTxn({writer, reader});

    MachineConfig unaware = cfgK(8);
    MachineConfig aware = cfgK(8);
    aware.tls.l1SubthreadAware = true;

    TlsMachine m1(unaware), m2(aware);
    RunResult ru = m1.run(w, ExecMode::Tls);
    RunResult ra = m2.run(w, ExecMode::Tls);
    ASSERT_GE(ru.squashes, 1u);
    ASSERT_GE(ra.squashes, 1u);
    // Aware mode keeps the L1 contents: replay misses less.
    EXPECT_LE(ra.l1Misses, ru.l1Misses);
    EXPECT_LE(ra.makespan, ru.makespan);
}

TEST(AdaptiveSpacing, ScalesCheckpointsToThreadSize)
{
    Builder b;
    auto small_epoch = [&b](Tracer &t) { t.compute(b.pc(), 4000); };
    auto big_epoch = [&b](Tracer &t) { t.compute(b.pc(), 160000); };
    auto w = b.loopTxn({big_epoch, small_epoch, small_epoch});

    MachineConfig fixed = cfgK(8, 5000);
    MachineConfig adaptive = cfgK(8, 5000);
    adaptive.tls.adaptiveSpacing = true;

    TlsMachine m1(fixed), m2(adaptive);
    RunResult rf = m1.run(w, ExecMode::Tls);
    RunResult ra = m2.run(w, ExecMode::Tls);
    // Fixed 5k: the big epoch burns all 7 extra contexts in its first
    // 35k instructions; small epochs spawn none (4000 < 5000).
    EXPECT_EQ(rf.subthreadsStarted, 7u);
    // Adaptive: the big epoch spreads 7 checkpoints over 160k, and the
    // small epochs get checkpoints too (spacing ~ size/8).
    EXPECT_GT(ra.subthreadsStarted, 7u);
}

TEST(VictimToggle, DisabledVictimStillTerminates)
{
    Builder b;
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int e = 0; e < 4; ++e) {
        bodies.push_back([&b, e](Tracer &t) {
            for (int i = 0; i < 64; ++i) {
                t.store(b.pc(), b.addr(1024 * e + i * 16), 8);
                t.compute(b.pc(), 50);
            }
        });
    }
    auto w = b.loopTxn(bodies);

    MachineConfig cfg = cfgK(2, 2000);
    cfg.mem.l2Bytes = 4 * 4 * 32;
    cfg.tls.useVictimCache = false;
    TlsMachine m(cfg);
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_GT(r.overflowEvents, 0u);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(DeliveryLatency, HigherLatencyNeverSpeedsUp)
{
    Builder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 9000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, reader});

    MachineConfig fast = cfgK(8);
    fast.tls.violationDeliveryLatency = 0;
    MachineConfig slow = cfgK(8);
    slow.tls.violationDeliveryLatency = 500;
    TlsMachine m1(fast), m2(slow);
    EXPECT_LE(m1.run(w, ExecMode::Tls).makespan,
              m2.run(w, ExecMode::Tls).makespan);
}

TEST(DependencePredictor, SynchronizesRepeatOffenderLoads)
{
    Builder b;
    // Three reader epochs all load through the same PC; the writer
    // violates the first. The predictor then synchronizes every later
    // instance of that PC, even the independent ones.
    Pc hot = sitePc(SiteId::AblationHotLoad);
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 12000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto readerShared = [&](Tracer &t) {
        t.load(hot, b.addr(64), 8);
        t.compute(b.pc(), 12000);
    };
    auto readerPrivate = [&, hot](Tracer &t) {
        t.load(hot, b.addr(2048), 8); // same PC, independent address
        t.compute(b.pc(), 12000);
    };
    auto w = b.loopTxn(
        {writer, readerShared, readerPrivate, readerPrivate});

    MachineConfig plain = cfgK(8);
    MachineConfig pred = cfgK(8);
    pred.tls.useDependencePredictor = true;

    TlsMachine m1(plain), m2(pred);
    RunResult r1 = m1.run(w, ExecMode::Tls);
    RunResult r2 = m2.run(w, ExecMode::Tls);

    EXPECT_EQ(r1.predictorStalls, 0u);
    // Once trained by the first violation, the predictor stalls later
    // instances of the PC — including the independent ones.
    EXPECT_GT(r2.predictorStalls, 0u);
    EXPECT_EQ(r2.epochs, 4u);
    EXPECT_EQ(r2.total.total(), r2.makespan * 4);
    // Determinism with the predictor on.
    RunResult r3 = m2.run(w, ExecMode::Tls);
    EXPECT_EQ(r2.makespan, r3.makespan);
}

TEST(DumpStats, ContainsTheExpectedGroups)
{
    Builder b;
    auto w = b.loopTxn({[&b](Tracer &t) { t.compute(b.pc(), 5000); }});
    TlsMachine m(cfgK(8));
    m.run(w, ExecMode::Tls);
    std::ostringstream os;
    m.dumpStats(os);
    std::string s = os.str();
    EXPECT_NE(s.find("cpu0.cycles"), std::string::npos);
    EXPECT_NE(s.find("cpu3.breakdown.busy"), std::string::npos);
    EXPECT_NE(s.find("l2.hits"), std::string::npos);
    EXPECT_NE(s.find("l2.victim_hits"), std::string::npos);
    EXPECT_NE(s.find("tls.violations_recorded"), std::string::npos);
}

} // namespace
} // namespace tlsim
