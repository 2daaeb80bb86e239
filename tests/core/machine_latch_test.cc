/**
 * @file
 * Latch/escape-region corner cases in the TLS machine: multi-waiter
 * hand-off, squashes of waiters and holders, latches held across
 * separate escape regions, multi-latch ordering, and the
 * latch-discipline runtime check.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

class LatchBuilder
{
  public:
    LatchBuilder() : mem_(8192, 0)
    {
        pc_ = sitePc(SiteId::LatchTestSite);
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
cfg(unsigned k = 8)
{
    MachineConfig c;
    c.tls.subthreadsPerThread = k;
    c.tls.subthreadSpacing = 1000;
    return c;
}

TEST(MachineLatch, FourWayContentionSerializesTheCriticalSection)
{
    LatchBuilder b;
    auto body = [&b](Tracer &t) {
        t.compute(b.pc(), 200);
        b.critical(t, 7, 8000);
        t.compute(b.pc(), 200);
    };
    auto w = b.loopTxn({body, body, body, body});

    TlsMachine m(cfg());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_GE(r.latchWaits, 3u);
    // The 8k-instruction critical sections serialize: makespan is at
    // least 4 x 2000 cycles of critical work.
    EXPECT_GE(r.makespan, 4u * 8000 / 4);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineLatch, WaiterCanBeSquashedWhileQueued)
{
    LatchBuilder b;
    // Epoch 0 holds the latch for a long time and then stores to the
    // word epochs 1..3 read *before* queueing on the latch: the squash
    // must pull waiters out of the queue cleanly.
    auto holder = [&b](Tracer &t) {
        b.critical(t, 9, 40000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto waiter = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 500);
        b.critical(t, 9, 2000);
        t.compute(b.pc(), 500);
    };
    auto w = b.loopTxn({holder, waiter, waiter, waiter});

    TlsMachine m(cfg());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_GE(r.squashes, 1u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);

    // Determinism through the squash-while-queued path.
    RunResult r2 = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.makespan, r2.makespan);
}

TEST(MachineLatch, HolderSquashReleasesTheLatch)
{
    LatchBuilder b;
    // Epoch 1 acquires the latch, then (still holding it, inside its
    // critical section via a speculative load between two escape
    // regions) reads a word epoch 0 writes late: the violation handler
    // must release the latch so epochs 2/3 are not wedged.
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 30000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto holder = [&b](Tracer &t) {
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 11);
        t.compute(b.pc(), 300);
        t.escapeEnd(b.pc());
        // Speculative work while holding the latch.
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 40000);
        t.escapeBegin(b.pc());
        t.latchRelease(b.pc(), 11);
        t.escapeEnd(b.pc());
    };
    auto contender = [&b](Tracer &t) {
        t.compute(b.pc(), 100);
        b.critical(t, 11, 1000);
    };
    auto w = b.loopTxn({writer, holder, contender, contender});

    TlsMachine m(cfg());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_GE(r.squashes, 1u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineLatch, AcquireAndReleaseInSeparateRegionsSurviveRewind)
{
    LatchBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto spanner = [&b](Tracer &t) {
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 13);
        t.escapeEnd(b.pc());
        t.compute(b.pc(), 3000);
        t.escapeBegin(b.pc());
        t.latchRelease(b.pc(), 13);
        t.escapeEnd(b.pc());
        // The violated load sits after the release: the rewind crosses
        // both completed regions, which must not be re-executed.
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 9000);
    };
    auto w = b.loopTxn({writer, spanner});

    TlsMachine m(cfg(1)); // all-or-nothing: rewind to epoch start
    RunResult r = m.run(w, ExecMode::Tls);
    ASSERT_GE(r.squashes, 1u);
    EXPECT_GE(r.escapeSkips, 2u); // both regions skipped on replay
    EXPECT_EQ(r.epochs, 2u);
}

TEST(MachineLatch, TwoLatchOrderingDoesNotDeadlock)
{
    LatchBuilder b;
    auto body = [&b](Tracer &t) {
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 21);
        t.latchAcquire(b.pc(), 22); // consistent global order
        t.compute(b.pc(), 3000);
        t.latchRelease(b.pc(), 22);
        t.latchRelease(b.pc(), 21);
        t.escapeEnd(b.pc());
        t.compute(b.pc(), 500);
    };
    auto w = b.loopTxn({body, body, body, body});
    TlsMachine m(cfg());
    RunResult r = m.run(w, ExecMode::Tls);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(MachineLatchDeathTest, EpochEndingWithHeldLatchPanics)
{
    LatchBuilder b;
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    t.txnBegin();
    t.loopBegin();
    t.iterBegin();
    t.escapeBegin(b.pc());
    t.latchAcquire(b.pc(), 31);
    t.escapeEnd(b.pc()); // capture allows it; the machine must not
    t.compute(b.pc(), 100);
    t.loopEnd();
    t.txnEnd();
    auto w = t.takeWorkload();
    TlsMachine m(cfg());
    EXPECT_DEATH(m.run(w, ExecMode::Tls), "latch");
}

TEST(MachineLatch, SerialModeLatchesAreUncontended)
{
    LatchBuilder b;
    auto body = [&b](Tracer &t) {
        b.critical(t, 41, 2000);
    };
    auto w = b.loopTxn({body, body, body});
    TlsMachine m(cfg());
    RunResult r = m.run(w, ExecMode::Serial);
    EXPECT_EQ(r.latchWaits, 0u);
    EXPECT_EQ(r.total[Cat::LatchStall], 0u);
}

} // namespace
} // namespace tlsim
