/**
 * @file
 * SimExecutor unit tests plus the parallel-determinism regression: a
 * Figure 6 sweep (runSweepPoint per point) or a Figure 5 bar set
 * (runBar per bar) fanned across 8 workers must produce bit-identical
 * RunResults (makespan and the full cycle breakdown) to the serial
 * path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/executor.h"
#include "sim/experiment.h"

namespace tlsim {
namespace sim {
namespace {

TEST(SimExecutor, RunsEveryIndexExactlyOnce)
{
    SimExecutor ex(4);
    EXPECT_EQ(ex.jobs(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    ex.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SimExecutor, ReusableAcrossBatches)
{
    SimExecutor ex(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> sum{0};
        ex.parallelFor(round * 7 + 1,
                       [&](std::size_t) { sum++; });
        EXPECT_EQ(sum.load(), round * 7 + 1);
    }
}

TEST(SimExecutor, UnevenTasksAllComplete)
{
    // Mix one long task among many short ones: the long task pins a
    // worker while the rest get stolen and finished by the others.
    SimExecutor ex(4);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    ex.parallelFor(n, [&](std::size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hits[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(SimExecutor, ExceptionPropagatesToCaller)
{
    SimExecutor ex(4);
    EXPECT_THROW(ex.parallelFor(100,
                                [&](std::size_t i) {
                                    if (i == 37)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The executor must stay usable after a failed batch.
    std::atomic<int> sum{0};
    ex.parallelFor(10, [&](std::size_t) { sum++; });
    EXPECT_EQ(sum.load(), 10);
}

TEST(SimExecutor, SingleJobRunsInlineOnCallerThread)
{
    SimExecutor ex(1);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(8);
    ex.parallelFor(8, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(SimExecutor, MapFillsByIndex)
{
    SimExecutor ex(4);
    std::vector<int> sq =
        ex.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(sq.size(), 50u);
    for (std::size_t i = 0; i < sq.size(); ++i)
        EXPECT_EQ(sq[i], static_cast<int>(i * i));
}

TEST(SimExecutor, AutoJobsIsAtLeastOne)
{
    SimExecutor ex(0);
    EXPECT_GE(ex.jobs(), 1u);
}

TEST(SimExecutor, ManySmallBatchesStress)
{
    // Hammer the open/seed/drain/close cycle: with 4 workers and
    // batches as small as a single task, any window where the batch
    // state is published before it is fully initialized (or recycled
    // before the last worker is out) shows up as a lost or double
    // execution — and as a TSan report in the instrumented build.
    SimExecutor ex(4);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + round % 7;
        std::atomic<std::size_t> sum{0};
        ex.parallelFor(n, [&](std::size_t) { sum++; });
        ASSERT_EQ(sum.load(), n) << "round " << round;
    }
}

TEST(SimExecutorDeathTest, ConcurrentSubmissionPanics)
{
    // The executor is single-submitter by contract; a second
    // parallelFor while a batch is open must panic, not corrupt the
    // shared batch state. The first submitter's task blocks until the
    // overlapping submission has been made, so the overlap is
    // deterministic, not a lucky interleaving.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            SimExecutor ex(2);
            std::atomic<bool> inside{false};
            std::atomic<bool> release{false};
            std::thread submitter([&] {
                ex.parallelFor(1, [&](std::size_t) {
                    inside = true;
                    while (!release)
                        std::this_thread::yield();
                });
            });
            while (!inside)
                std::this_thread::yield();
            // Batch still open (its only task is spinning): the
            // overlapping submission must die here.
            ex.parallelFor(1, [](std::size_t) {});
            release = true;
            submitter.join();
        },
        "not reentrant");
}

// ---------------------------------------------------------------------
// Two-stage pipeline.
// ---------------------------------------------------------------------

TEST(SimExecutorPipeline, BothStagesRunEveryIndexInOrder)
{
    SimExecutor ex(4);
    constexpr std::size_t n = 200;
    std::vector<std::size_t> produced, consumed;
    std::mutex mtx; // produce runs on the producer thread
    ex.pipeline(
        n,
        [&](std::size_t i) {
            std::lock_guard<std::mutex> lk(mtx);
            produced.push_back(i);
        },
        [&](std::size_t i) {
            std::lock_guard<std::mutex> lk(mtx);
            consumed.push_back(i);
        });
    ASSERT_EQ(produced.size(), n);
    ASSERT_EQ(consumed.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(produced[i], i);
        EXPECT_EQ(consumed[i], i);
    }
}

TEST(SimExecutorPipeline, ProducerStaysWithinWindow)
{
    SimExecutor ex(4);
    constexpr std::size_t n = 100;
    constexpr std::size_t window = 3;
    std::atomic<std::size_t> consumed{0};
    std::atomic<bool> overshoot{false};
    ex.pipeline(
        n,
        [&](std::size_t i) {
            // produce(i) may start only once consume(i - window) is
            // done, i.e. i < consumed + window.
            if (i >= consumed.load() + window)
                overshoot = true;
        },
        [&](std::size_t i) { consumed = i + 1; }, window);
    EXPECT_FALSE(overshoot.load());
    EXPECT_EQ(consumed.load(), n);
}

TEST(SimExecutorPipeline, ConsumeSeesProducedData)
{
    // The hand-off is the point: data written by produce(i) on the
    // producer thread must be visible to consume(i) on the caller.
    SimExecutor ex(2);
    constexpr std::size_t n = 500;
    std::vector<std::size_t> slot(n, 0);
    std::size_t sum = 0;
    ex.pipeline(
        n, [&](std::size_t i) { slot[i] = i * i; },
        [&](std::size_t i) { sum += slot[i]; });
    std::size_t want = 0;
    for (std::size_t i = 0; i < n; ++i)
        want += i * i;
    EXPECT_EQ(sum, want);
}

TEST(SimExecutorPipeline, SingleJobRunsSerialInline)
{
    SimExecutor ex(1);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    ex.pipeline(
        3,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(static_cast<int>(i) * 2);
        },
        [&](std::size_t i) {
            order.push_back(static_cast<int>(i) * 2 + 1);
        });
    // Exactly the serial reference: p0 c0 p1 c1 p2 c2.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SimExecutorPipeline, ProduceExceptionPropagates)
{
    SimExecutor ex(4);
    std::atomic<std::size_t> consumed{0};
    EXPECT_THROW(ex.pipeline(
                     100,
                     [&](std::size_t i) {
                         if (i == 7)
                             throw std::runtime_error("produce boom");
                     },
                     [&](std::size_t) { consumed++; }),
                 std::runtime_error);
    // Items beyond the failure point must not have been consumed.
    EXPECT_LE(consumed.load(), 7u);
    // The executor must stay usable afterwards.
    std::atomic<int> sum{0};
    ex.parallelFor(10, [&](std::size_t) { sum++; });
    EXPECT_EQ(sum.load(), 10);
}

TEST(SimExecutorPipeline, ConsumeExceptionPropagates)
{
    SimExecutor ex(4);
    EXPECT_THROW(ex.pipeline(
                     100, [](std::size_t) {},
                     [](std::size_t i) {
                         if (i == 3)
                             throw std::runtime_error("consume boom");
                     }),
                 std::runtime_error);
    std::atomic<std::size_t> done{0};
    ex.pipeline(
        5, [](std::size_t) {}, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 5u);
}

TEST(SimExecutorPipeline, EmptyAndSingleItemDegenerate)
{
    SimExecutor ex(4);
    int produced = 0, consumed = 0;
    ex.pipeline(
        0, [&](std::size_t) { produced++; },
        [&](std::size_t) { consumed++; });
    EXPECT_EQ(produced, 0);
    EXPECT_EQ(consumed, 0);
    ex.pipeline(
        1, [&](std::size_t) { produced++; },
        [&](std::size_t) { consumed++; });
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(consumed, 1);
}

TEST(SimExecutorPipeline, ZeroWindowIsClampedToOne)
{
    SimExecutor ex(2);
    constexpr std::size_t n = 20;
    std::atomic<std::size_t> consumed{0};
    std::atomic<bool> overshoot{false};
    ex.pipeline(
        n,
        [&](std::size_t i) {
            if (i >= consumed.load() + 1)
                overshoot = true;
        },
        [&](std::size_t i) { consumed = i + 1; }, 0);
    EXPECT_FALSE(overshoot.load());
    EXPECT_EQ(consumed.load(), n);
}

// ---------------------------------------------------------------------
// Determinism regression: parallel == serial, bit for bit.
// ---------------------------------------------------------------------

void
expectRunEq(const RunResult &a, const RunResult &b, const char *what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    for (unsigned c = 0; c < kNumCats; ++c)
        EXPECT_EQ(a.total.cycles[c], b.total.cycles[c])
            << what << " cat " << catName(static_cast<Cat>(c));
    EXPECT_EQ(a.txns, b.txns) << what;
    EXPECT_EQ(a.epochs, b.epochs) << what;
    EXPECT_EQ(a.totalInsts, b.totalInsts) << what;
    EXPECT_EQ(a.primaryViolations, b.primaryViolations) << what;
    EXPECT_EQ(a.secondaryViolations, b.secondaryViolations) << what;
    EXPECT_EQ(a.squashes, b.squashes) << what;
    EXPECT_EQ(a.rewoundInsts, b.rewoundInsts) << what;
    EXPECT_EQ(a.subthreadsStarted, b.subthreadsStarted) << what;
    EXPECT_EQ(a.overflowEvents, b.overflowEvents) << what;
    EXPECT_EQ(a.latchWaits, b.latchWaits) << what;
    EXPECT_EQ(a.escapeSkips, b.escapeSkips) << what;
    EXPECT_EQ(a.predictorStalls, b.predictorStalls) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.victimHits, b.victimHits) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<tpcc::TxnType>
{
};

// A fresh capture records raw heap addresses, which differ between
// captures even within one process, so the serial reference must run
// over the SAME captured traces as the parallel sweep — exactly the
// contract the benches rely on (capture once, fan the replays out).

TEST_P(ParallelDeterminism, Figure6ParallelMatchesSerial)
{
    tpcc::TxnType type = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    const std::vector<unsigned> counts = {2, 8};
    const std::vector<std::uint64_t> spacings = {1000, 5000, 25000};

    BenchmarkTraces traces = captureTraces(type, cfg);

    // Each point fills its index-assigned slot, as the bench does.
    auto sweep = [&](SimExecutor &ex) {
        std::vector<RunResult> out(counts.size() * spacings.size());
        ex.parallelFor(out.size(), [&](std::size_t i) {
            out[i] = runSweepPoint(counts[i / spacings.size()],
                                   spacings[i % spacings.size()], traces,
                                   cfg);
        });
        return out;
    };

    // jobs == 1 runs the sweep inline in index order: the serial path.
    SimExecutor serial_ex(1);
    std::vector<RunResult> serial = sweep(serial_ex);

    SimExecutor ex(8);
    std::vector<RunResult> parallel = sweep(ex);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectRunEq(serial[i], parallel[i], tpcc::txnTypeName(type));
}

TEST_P(ParallelDeterminism, Figure5ParallelMatchesSerial)
{
    tpcc::TxnType type = GetParam();
    ExperimentConfig cfg = ExperimentConfig::testPreset();

    BenchmarkTraces traces = captureTraces(type, cfg);

    // Serial reference: the plain bar-by-bar loop, no executor at all.
    const std::vector<Bar> &bars = allBars();
    std::vector<RunResult> serial;
    for (Bar bar : bars)
        serial.push_back(runBar(bar, traces, cfg));

    std::vector<RunResult> parallel(bars.size());
    SimExecutor ex(8);
    ex.parallelFor(bars.size(), [&](std::size_t i) {
        parallel[i] = runBar(bars[i], traces, cfg);
    });

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectRunEq(serial[i], parallel[i], barName(bars[i]));
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, ParallelDeterminism,
                         ::testing::Values(tpcc::TxnType::NewOrder,
                                           tpcc::TxnType::StockLevel));

} // namespace
} // namespace sim
} // namespace tlsim
