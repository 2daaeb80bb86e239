#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

/**
 * Builds synthetic workloads with precisely controlled addresses so
 * the tests can plant (or avoid) cross-epoch dependences.
 */
class TraceBuilder
{
  public:
    TraceBuilder()
        : mem_(16384, 0)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        tracer_ = std::make_unique<Tracer>(o);
        memRegion_ = TracedRegion(*tracer_, mem_.data(),
                                  mem_.size() * sizeof(mem_[0]));
        pc_ = sitePc(SiteId::TestMachineSite);
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    /** One transaction with a single parallel loop of `bodies`. */
    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        tracer_->txnBegin();
        tracer_->compute(pc_, 100); // prologue
        tracer_->loopBegin();
        for (const auto &body : bodies) {
            tracer_->iterBegin();
            body(*tracer_);
        }
        tracer_->loopEnd();
        tracer_->compute(pc_, 100); // epilogue
        tracer_->txnEnd();
        return tracer_->takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    std::unique_ptr<Tracer> tracer_;
    TracedRegion memRegion_;
    Pc pc_;
};

MachineConfig
testConfig(unsigned subthreads = 8, std::uint64_t spacing = 1000)
{
    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = subthreads;
    cfg.tls.subthreadSpacing = spacing;
    return cfg;
}

/** body: compute work touching a private array region. */
std::function<void(Tracer &)>
privateWork(TraceBuilder &b, std::size_t base, unsigned insts)
{
    return [&b, base, insts](Tracer &t) {
        Pc pc = b.pc();
        for (unsigned k = 0; k < insts / 100; ++k) {
            t.compute(pc, 80);
            t.load(pc, b.addr(base + (k % 64)), 8);
            t.store(pc, b.addr(base + 64 + (k % 64)), 8);
        }
    };
}

TEST(MachineSerial, ReplayProducesConsistentAccounting)
{
    TraceBuilder b;
    auto w = b.loopTxn({privateWork(b, 0, 5000),
                        privateWork(b, 256, 5000)});
    TlsMachine m(testConfig());
    RunResult r = m.run(w, ExecMode::Serial);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
    EXPECT_EQ(r.primaryViolations, 0u);
    EXPECT_EQ(r.txns, 1u);
}

TEST(MachineTls, IndependentEpochsRunInParallel)
{
    TraceBuilder b;
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int i = 0; i < 4; ++i)
        bodies.push_back(privateWork(b, 512 * i, 20000));
    auto w = b.loopTxn(bodies);

    TlsMachine m(testConfig());
    RunResult seq = m.run(w, ExecMode::Serial);
    RunResult tls = m.run(w, ExecMode::Tls);

    EXPECT_EQ(tls.primaryViolations, 0u);
    EXPECT_EQ(tls.epochs, 4u);
    EXPECT_GT(seq.makespan, tls.makespan * 2); // near-4x in practice
    EXPECT_EQ(tls.total.total(), tls.makespan * 4);
}

TEST(MachineTls, RawDependenceTriggersViolation)
{
    TraceBuilder b;
    // Epoch 0 stores word 8000 late; epoch 1 loads it early and then
    // keeps working - a classic read-too-early violation.
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 200);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine m(testConfig());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_GE(r.primaryViolations, 1u);
    EXPECT_GE(r.squashes, 1u);
    EXPECT_GT(r.total[Cat::Failed], 0u);
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineTls, NoSpeculationIgnoresDependences)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 8000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 20000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine m(testConfig());
    RunResult nospec = m.run(w, ExecMode::NoSpeculation);
    RunResult tls = m.run(w, ExecMode::Tls);
    EXPECT_EQ(nospec.primaryViolations, 0u);
    EXPECT_EQ(nospec.total[Cat::Failed], 0u);
    EXPECT_LE(nospec.makespan, tls.makespan);
}

TEST(MachineTls, SubthreadsReduceRewoundWork)
{
    TraceBuilder b;
    // The reader does 30k instructions before the dependent load; 7
    // extra contexts at 4k spacing keep a checkpoint within 4k of it,
    // while all-or-nothing rewinds everything.
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 40000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 30000);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 5000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine all_or_nothing(testConfig(1));
    TlsMachine with_subs(testConfig(8, 4000));
    RunResult r1 = all_or_nothing.run(w, ExecMode::Tls);
    RunResult r8 = with_subs.run(w, ExecMode::Tls);

    ASSERT_GE(r1.squashes, 1u);
    ASSERT_GE(r8.squashes, 1u);
    EXPECT_GT(r1.rewoundInsts, 25000u);
    EXPECT_LT(r8.rewoundInsts, r1.rewoundInsts / 4);
    EXPECT_LT(r8.makespan, r1.makespan);
    EXPECT_GT(r8.subthreadsStarted, 0u);
}

TEST(MachineTls, SubthreadCountCapsSpawns)
{
    TraceBuilder b;
    auto w = b.loopTxn({privateWork(b, 0, 50000)});
    TlsMachine m(testConfig(4, 1000));
    RunResult r = m.run(w, ExecMode::Tls);
    // 50k instructions at 1k spacing would want ~50 checkpoints, but
    // only k-1 = 3 contexts are available.
    EXPECT_LE(r.subthreadsStarted, 3u);
}

TEST(MachineTls, StartTableMakesSecondaryViolationsSelective)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 30000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 3000);
    };
    // Two younger bystander epochs that never touch word 8000.
    std::vector<std::function<void(Tracer &)>> bodies = {
        writer, reader, privateWork(b, 1024, 30000),
        privateWork(b, 2048, 30000)};
    auto w = b.loopTxn(bodies);

    MachineConfig with_table = testConfig(8, 1000);
    MachineConfig without_table = testConfig(8, 1000);
    without_table.tls.useStartTable = false;

    TlsMachine m1(with_table), m2(without_table);
    RunResult sel = m1.run(w, ExecMode::Tls);
    RunResult all = m2.run(w, ExecMode::Tls);

    EXPECT_GE(sel.secondaryViolations, 1u);
    EXPECT_GE(all.secondaryViolations, 1u);
    // Figure 4(b): with the table, bystanders rewind only to the
    // sub-thread running when the violated sub-thread started.
    EXPECT_LT(sel.rewoundInsts, all.rewoundInsts);
    EXPECT_LE(sel.makespan, all.makespan);
}

TEST(MachineTls, LatchesSerializeEscapedRegions)
{
    TraceBuilder b;
    auto critical = [&b](Tracer &t) {
        t.compute(b.pc(), 500);
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 99);
        t.compute(b.pc(), 4000);
        t.latchRelease(b.pc(), 99);
        t.escapeEnd(b.pc());
        t.compute(b.pc(), 500);
    };
    auto w = b.loopTxn({critical, critical, critical});

    TlsMachine m(testConfig());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_GE(r.latchWaits, 1u);
    EXPECT_GT(r.total[Cat::LatchStall], 0u);
    EXPECT_EQ(r.epochs, 3u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineTls, EscapedWorkIsNotReExecutedAfterRewind)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 20000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 55);
        t.compute(b.pc(), 1000);
        t.latchRelease(b.pc(), 55);
        t.escapeEnd(b.pc());
        t.load(b.pc(), b.addr(8000), 8); // violated
        t.compute(b.pc(), 10000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine m(testConfig(1)); // rewind to epoch start
    RunResult r = m.run(w, ExecMode::Tls);
    ASSERT_GE(r.squashes, 1u);
    EXPECT_GE(r.escapeSkips, 1u);
}

TEST(MachineTls, OverflowIsResolvedNotDeadlocked)
{
    TraceBuilder b;
    // A machine with a tiny L2 and victim cache: speculative state
    // overflows and the machine must still finish.
    MachineConfig cfg = testConfig(2, 2000);
    cfg.mem.l2Bytes = 4 * 4 * 32; // 4 sets x 4 ways
    cfg.mem.victimEntries = 4;

    std::vector<std::function<void(Tracer &)>> bodies;
    for (int e = 0; e < 4; ++e) {
        bodies.push_back([&b, e](Tracer &t) {
            // Store to many conflicting lines (stride = 4 sets x 4
            // words/line... word stride 16 = one line per 4 sets).
            for (int i = 0; i < 64; ++i) {
                t.store(b.pc(), b.addr(1024 * e + i * 16), 8);
                t.compute(b.pc(), 50);
            }
        });
    }
    auto w = b.loopTxn(bodies);

    TlsMachine m(cfg);
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_GT(r.overflowEvents, 0u);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineTls, DeterministicAcrossRuns)
{
    TraceBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 9000);
        t.store(b.pc(), b.addr(8000), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(8000), 8);
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, reader, privateWork(b, 1024, 9000)});

    TlsMachine m(testConfig());
    RunResult a = m.run(w, ExecMode::Tls);
    RunResult b2 = m.run(w, ExecMode::Tls);
    EXPECT_EQ(a.makespan, b2.makespan);
    EXPECT_EQ(a.primaryViolations, b2.primaryViolations);
    EXPECT_EQ(a.squashes, b2.squashes);
    EXPECT_EQ(a.rewoundInsts, b2.rewoundInsts);
}

TEST(MachineTls, ProfilerAttributesViolations)
{
    TraceBuilder b;
    Pc load_pc = sitePc(SiteId::TestMachineLoad);
    Pc store_pc = sitePc(SiteId::TestMachineStore);
    auto writer = [&](Tracer &t) {
        t.compute(b.pc(), 9000);
        t.store(store_pc, b.addr(8000), 8);
    };
    auto reader = [&](Tracer &t) {
        t.load(load_pc, b.addr(8000), 8);
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine m(testConfig());
    RunResult r = m.run(w, ExecMode::Tls);
    ASSERT_GE(r.squashes, 1u);
    auto rep = m.profiler().report();
    ASSERT_FALSE(rep.empty());
    EXPECT_EQ(rep[0].storePc, store_pc);
    EXPECT_EQ(rep[0].loadPc, load_pc);
    EXPECT_GT(rep[0].failedCycles, 0u);
}

TEST(MachineTls, MoreEpochsThanCpusCommitInOrder)
{
    TraceBuilder b;
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int i = 0; i < 10; ++i)
        bodies.push_back(privateWork(b, 512 * (i % 8), 4000));
    auto w = b.loopTxn(bodies);
    TlsMachine m(testConfig());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.epochs, 10u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineTls, WarmupTxnsExcludedFromStats)
{
    TraceBuilder b;
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    // Two identical transactions.
    for (int i = 0; i < 2; ++i) {
        t.txnBegin();
        t.loopBegin();
        t.iterBegin();
        t.compute(b.pc(), 5000);
        t.iterBegin();
        t.compute(b.pc(), 5000);
        t.loopEnd();
        t.txnEnd();
    }
    auto w = t.takeWorkload();
    TlsMachine m(testConfig());
    RunResult all = m.run(w, ExecMode::Tls, 0);
    RunResult measured = m.run(w, ExecMode::Tls, 1);
    EXPECT_EQ(all.txns, 2u);
    EXPECT_EQ(measured.txns, 1u); // only the measured region counts
    EXPECT_LT(measured.makespan, all.makespan);
    EXPECT_EQ(measured.epochs, 2u);
}

} // namespace
} // namespace tlsim
