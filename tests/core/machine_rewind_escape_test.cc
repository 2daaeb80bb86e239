/**
 * @file
 * Rewind x escaped-region interaction: an escaped region that finished
 * before a violation must be skipped -- not re-executed -- when the
 * rewind point lies before it, and must not be counted when the rewind
 * point lies after it. Both behaviors must be identical with the
 * conflict-oracle fast path on and off.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

class RewindBuilder
{
  public:
    RewindBuilder() : mem_(8192, 0)
    {
        pc_ = sitePc(SiteId::RewindEscapeSite);
    }

    void *addr(std::size_t w) { return &mem_.at(w); }
    Pc pc() const { return pc_; }

    void
    critical(Tracer &t, std::uint64_t latch, unsigned insts)
    {
        t.escapeBegin(pc_);
        t.latchAcquire(pc_, latch);
        t.compute(pc_, insts);
        t.latchRelease(pc_, latch);
        t.escapeEnd(pc_);
    }

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
cfg(unsigned k, bool oracle)
{
    MachineConfig c;
    c.tls.subthreadsPerThread = k;
    c.tls.subthreadSpacing = 1000;
    c.tls.useConflictOracle = oracle;
    return c;
}

/**
 * One dependence, one escaped region, all-or-nothing rewind: the
 * violated load sits before the region, so the rewind crosses it and
 * the single re-execution must skip it exactly once.
 */
TEST(MachineRewindEscape, RewindAcrossCompletedRegionSkipsItOnce)
{
    RewindBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto victim = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8); // violated by the late store
        t.compute(b.pc(), 500);
        b.critical(t, 17, 1000); // completed before the violation
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, victim});

    for (bool oracle : {true, false}) {
        TlsMachine m(cfg(1, oracle));
        RunResult r = m.run(w, ExecMode::Tls);
        EXPECT_EQ(r.squashes, 1u) << "oracle=" << oracle;
        EXPECT_EQ(r.escapeSkips, 1u) << "oracle=" << oracle;
        EXPECT_EQ(r.epochs, 2u) << "oracle=" << oracle;
    }
}

/**
 * Same dependence, but with sub-threads the rewind point is a
 * checkpoint after the escaped region: the region is never crossed, so
 * it must not be skipped (and must not be re-executed either).
 */
TEST(MachineRewindEscape, SubthreadRewindAfterRegionDoesNotSkip)
{
    RewindBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto victim = [&b](Tracer &t) {
        b.critical(t, 19, 1000); // done within the first sub-thread
        t.compute(b.pc(), 4000);
        t.load(b.pc(), b.addr(64), 8); // several checkpoints later
        t.compute(b.pc(), 2000);
    };
    auto w = b.loopTxn({writer, victim});

    for (bool oracle : {true, false}) {
        TlsMachine m(cfg(8, oracle));
        RunResult r = m.run(w, ExecMode::Tls);
        EXPECT_GE(r.squashes, 1u) << "oracle=" << oracle;
        EXPECT_EQ(r.escapeSkips, 0u) << "oracle=" << oracle;
    }
}

/** The squash/skip path is deterministic and oracle-independent. */
TEST(MachineRewindEscape, OracleDoesNotChangeRewindTiming)
{
    RewindBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto victim = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 500);
        b.critical(t, 23, 1000);
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, victim});

    TlsMachine on(cfg(1, true)), off(cfg(1, false));
    RunResult r_on = on.run(w, ExecMode::Tls);
    RunResult r_off = off.run(w, ExecMode::Tls);
    EXPECT_EQ(r_on.makespan, r_off.makespan);
    EXPECT_EQ(r_on.escapeSkips, r_off.escapeSkips);
    EXPECT_EQ(r_on.rewoundInsts, r_off.rewoundInsts);
    EXPECT_EQ(r_on.total.total(), r_off.total.total());
}

} // namespace
} // namespace tlsim
