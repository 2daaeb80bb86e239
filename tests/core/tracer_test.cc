#include <gtest/gtest.h>

#include <vector>

#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

Tracer::Options
parallelOpts()
{
    Tracer::Options o;
    o.parallelMode = true;
    o.spawnOverheadInsts = 100;
    return o;
}

TEST(Tracer, DropsEventsOutsideTransactions)
{
    Tracer t;
    int x = 0;
    TracedRegion rx(t, &x, sizeof(x));
    t.load(1, &x, 4);
    t.compute(1, 50);
    EXPECT_TRUE(t.workload().txns.empty());
}

TEST(Tracer, SequentialCaptureIsOneSection)
{
    Tracer t; // parallelMode off
    int x = 0;
    TracedRegion rx(t, &x, sizeof(x));
    t.txnBegin();
    t.compute(1, 40);
    t.loopBegin(); // ignored without parallel mode
    t.iterBegin();
    t.load(1, &x, 4);
    t.loopEnd();
    t.txnEnd();

    const auto &txn = t.workload().txns.at(0);
    ASSERT_EQ(txn.sections.size(), 1u);
    EXPECT_FALSE(txn.sections[0].parallel);
    EXPECT_EQ(txn.sections[0].epochs.size(), 1u);
    EXPECT_EQ(txn.sections[0].epochs[0].records.size(), 2u);
    EXPECT_EQ(txn.coverage(), 0.0);
}

TEST(Tracer, ParallelLoopBecomesEpochs)
{
    Tracer t(parallelOpts());
    int x = 0;
    TracedRegion rx(t, &x, sizeof(x));
    t.txnBegin();
    t.compute(1, 10); // prologue
    t.loopBegin();
    for (int i = 0; i < 3; ++i) {
        t.iterBegin();
        t.load(1, &x, 4);
        t.compute(1, 20);
    }
    t.loopEnd();
    t.compute(1, 5); // epilogue
    t.txnEnd();

    const auto &txn = t.workload().txns.at(0);
    ASSERT_EQ(txn.sections.size(), 3u);
    EXPECT_FALSE(txn.sections[0].parallel);
    EXPECT_TRUE(txn.sections[1].parallel);
    EXPECT_FALSE(txn.sections[2].parallel);
    EXPECT_EQ(txn.sections[1].epochs.size(), 3u);
    EXPECT_EQ(txn.epochCount(), 3u);
    EXPECT_EQ(txn.epochsPerLoop(), 3.0);
    EXPECT_GT(txn.coverage(), 0.5);
}

TEST(Tracer, EpochsChargeSpawnOverhead)
{
    Tracer t(parallelOpts());
    t.txnBegin();
    t.loopBegin();
    t.iterBegin();
    t.compute(1, 20);
    t.loopEnd();
    t.txnEnd();

    const auto &e = t.workload().txns.at(0).sections.at(0).epochs.at(0);
    ASSERT_EQ(e.records.size(), 2u);
    EXPECT_EQ(e.records[0].op, TraceOp::Compute);
    EXPECT_EQ(e.records[0].addr, 100u); // spawn overhead
    EXPECT_EQ(e.instCount, 120u);
}

TEST(Tracer, EmptyLoopLeavesNoParallelSection)
{
    Tracer t(parallelOpts());
    t.txnBegin();
    t.loopBegin();
    t.loopEnd();
    t.compute(1, 10);
    t.txnEnd();
    const auto &txn = t.workload().txns.at(0);
    ASSERT_EQ(txn.sections.size(), 1u);
    EXPECT_FALSE(txn.sections[0].parallel);
}

TEST(Tracer, WideAccessesSplitAtLineBoundaries)
{
    Tracer t;
    char buf[128];
    TracedRegion rb(t, buf, sizeof(buf), 64);
    t.txnBegin();
    t.load(1, buf + 24, 40); // crosses one 32B boundary
    t.txnEnd();

    const auto &recs =
        t.workload().txns.at(0).sections.at(0).epochs.at(0).records;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].size, 8u);
    EXPECT_EQ(recs[1].size, 32u);
    EXPECT_EQ(recs[1].addr, recs[0].addr + 8);
}

TEST(Tracer, DependentFlagOnlyOnFirstChunk)
{
    Tracer t;
    char buf[128];
    TracedRegion rb(t, buf, sizeof(buf), 64);
    t.txnBegin();
    t.load(1, buf, 64, true);
    t.txnEnd();
    const auto &recs =
        t.workload().txns.at(0).sections.at(0).epochs.at(0).records;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_TRUE(recs[0].aux & kAuxDependent);
    EXPECT_FALSE(recs[1].aux & kAuxDependent);
}

TEST(Tracer, EscapeSpansAndSpecCounts)
{
    Tracer t(parallelOpts());
    int x = 0;
    TracedRegion rx(t, &x, sizeof(x));
    t.txnBegin();
    t.loopBegin();
    t.iterBegin();
    t.compute(1, 40);       // speculative
    t.escapeBegin(1);
    t.latchAcquire(1, 7);
    t.compute(1, 60);       // escaped
    t.latchRelease(1, 7);
    t.escapeEnd(1);
    t.load(1, &x, 4);       // speculative again
    t.loopEnd();
    t.txnEnd();

    const auto &e = t.workload().txns.at(0).sections.at(0).epochs.at(0);
    ASSERT_EQ(e.escapeSpans.size(), 1u);
    auto [b, en] = e.escapeSpans[0];
    EXPECT_EQ(e.records[b].op, TraceOp::EscapeBegin);
    EXPECT_EQ(e.records[en].op, TraceOp::EscapeEnd);
    // spec insts = spawn(100) + compute(40) + load(1)
    EXPECT_EQ(e.specInstCount, 141u);
    EXPECT_GT(e.instCount, e.specInstCount);
}

TEST(Tracer, NestedEscapesFlattenToOneSpan)
{
    Tracer t;
    t.txnBegin();
    t.escapeBegin(1);
    t.escapeBegin(2);
    t.compute(1, 10);
    t.escapeEnd(2);
    t.escapeEnd(1);
    t.txnEnd();
    const auto &e = t.workload().txns.at(0).sections.at(0).epochs.at(0);
    EXPECT_EQ(e.escapeSpans.size(), 1u);
}

TEST(Tracer, ComputeClassRecorded)
{
    Tracer t;
    t.txnBegin();
    t.compute(1, 5, ComputeClass::FpDiv);
    t.txnEnd();
    const auto &r =
        t.workload().txns.at(0).sections.at(0).epochs.at(0).records[0];
    EXPECT_EQ(static_cast<ComputeClass>(r.aux), ComputeClass::FpDiv);
}

TEST(Tracer, TakeWorkloadResets)
{
    Tracer t;
    t.txnBegin();
    t.compute(1, 1);
    t.txnEnd();
    WorkloadTrace w = t.takeWorkload();
    EXPECT_EQ(w.txns.size(), 1u);
    EXPECT_TRUE(t.workload().txns.empty());
}

TEST(Tracer, TakeWorkloadRecyclesLoopStructureState)
{
    // takeWorkload() is the Tracer's declared recycle point (see
    // tools/poolreset.txt): the capture that leaves must take its
    // loop-structure state with it, so the next workload's opening
    // section can never inherit a stale parallel context.
    Tracer t(parallelOpts());
    int x = 0;
    TracedRegion rx(t, &x, sizeof(x));
    t.txnBegin();
    t.loopBegin();
    t.iterBegin();
    t.load(1, &x, 4);
    t.loopEnd();
    t.txnEnd();
    WorkloadTrace first = t.takeWorkload();
    ASSERT_EQ(first.txns.size(), 1u);

    t.txnBegin();
    t.compute(1, 10);
    t.txnEnd();
    WorkloadTrace second = t.takeWorkload();
    ASSERT_EQ(second.txns.size(), 1u);
    ASSERT_EQ(second.txns[0].sections.size(), 1u);
    EXPECT_FALSE(second.txns[0].sections[0].parallel)
        << "loop state leaked across takeWorkload()";
}

TEST(Tracer, RegionsAreLaidOutInRegistrationOrder)
{
    Tracer t;
    std::uint32_t word = 0;
    std::vector<std::uint8_t> buf(100);
    TracedRegion rw(t, &word, sizeof(word));
    TracedRegion rb(t, buf.data(), buf.size(), 64);
    EXPECT_EQ(rw.synthetic(), Tracer::kDataBase);
    EXPECT_EQ(rb.synthetic(), Tracer::kDataBase + 64); // aligned up

    t.txnBegin();
    t.store(1, &word, 4);
    t.load(1, &buf[70], 8);
    t.txnEnd();
    const auto &recs = t.workload().txns.at(0).sections.at(0)
                           .epochs.at(0).records;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].addr, Tracer::kDataBase);
    EXPECT_EQ(recs[1].addr, rb.synthetic() + 70);
}

TEST(Tracer, FramesMapByPageId)
{
    Tracer t;
    constexpr std::size_t kPage = 4096;
    std::vector<std::uint8_t> frames(4 * kPage);
    TracedRegion rf =
        TracedRegion::frames(t, frames.data(), 9, 4, kPage);
    EXPECT_EQ(rf.synthetic(), Tracer::kFramesBase + 9 * kPage);

    t.txnBegin();
    t.load(1, &frames[2 * kPage + 24], 8); // page 11, offset 24
    t.txnEnd();
    const auto &recs = t.workload().txns.at(0).sections.at(0)
                           .epochs.at(0).records;
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].addr, Tracer::kFramesBase + 11 * kPage + 24);
}

TEST(Tracer, UnmappedRegionsFreeTheirRange)
{
    Tracer t;
    int x = 0;
    {
        TracedRegion rx(t, &x, sizeof(x));
    }
    // Re-registering the same object maps it again, further on.
    TracedRegion rx(t, &x, sizeof(x));
    EXPECT_EQ(rx.synthetic(), Tracer::kDataBase + 16);
}

TEST(TracerDeathTest, UnregisteredPointerPanics)
{
    Tracer t;
    int x = 0;
    t.txnBegin();
    EXPECT_DEATH(t.load(1, &x, 4), "outside every registered region");
}

TEST(TracerDeathTest, AccessPastItsRegionPanics)
{
    Tracer t;
    std::uint64_t words[2] = {0, 0};
    TracedRegion r(t, &words[0], sizeof(words[0]));
    t.txnBegin();
    EXPECT_DEATH(t.store(1, &words[0], 16), "outside every registered");
}

TEST(TracerDeathTest, OverlappingRegionsPanic)
{
    Tracer t;
    std::uint64_t words[2] = {0, 0};
    TracedRegion r(t, &words[0], sizeof(words));
    EXPECT_DEATH(TracedRegion(t, &words[1], sizeof(words[1])),
                 "overlaps");
}

TEST(TracerDeathTest, LatchOutsideEscapePanics)
{
    Tracer t;
    t.txnBegin();
    EXPECT_DEATH(t.latchAcquire(1, 7), "escaped region");
}

TEST(TracerDeathTest, UnbalancedEscapePanics)
{
    Tracer t;
    t.txnBegin();
    t.escapeBegin(1);
    EXPECT_DEATH(t.txnEnd(), "escaped region");
}

TEST(TracerDeathTest, IterOutsideLoopPanics)
{
    Tracer t(parallelOpts());
    t.txnBegin();
    EXPECT_DEATH(t.iterBegin(), "outside a parallel loop");
}

TEST(TracerDeathTest, NestedParallelLoopsPanic)
{
    Tracer t(parallelOpts());
    t.txnBegin();
    t.loopBegin();
    EXPECT_DEATH(t.loopBegin(), "nested");
}

} // namespace
} // namespace tlsim
