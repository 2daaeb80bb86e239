#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "base/stats.h"

namespace tlsim {
namespace stats {
namespace {

TEST(Scalar, AccumulatesAndResets)
{
    StatGroup g("g");
    Scalar s(&g, "count", "a counter");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0);
}

TEST(Scalar, AssignmentOverwrites)
{
    Scalar s(nullptr, "x", "");
    s += 5;
    s = 2;
    EXPECT_DOUBLE_EQ(s.value(), 2);
}

TEST(Vector, BucketsAndTotal)
{
    Vector v(nullptr, "cat", "categories", {"a", "b", "c"});
    v[0] = 1;
    v[1] = 2;
    v[2] = 3;
    EXPECT_DOUBLE_EQ(v.total(), 6);
    EXPECT_DOUBLE_EQ(v.at(1), 2);
    v.reset();
    EXPECT_DOUBLE_EQ(v.total(), 0);
}

TEST(StatGroup, DumpPrefixesEveryLine)
{
    StatGroup g("cpu0");
    Scalar s(&g, "cycles", "total cycles");
    Vector v(&g, "cat", "breakdown", {"busy", "idle"});
    s += 7;
    v[0] = 3;
    std::ostringstream os;
    g.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("cpu0.cycles 7"), std::string::npos);
    EXPECT_NE(text.find("cpu0.cat.busy 3"), std::string::npos);
    EXPECT_NE(text.find("cpu0.cat.idle 0"), std::string::npos);
}

TEST(StatGroup, ResetAllResetsMembers)
{
    StatGroup g("g");
    Scalar a(&g, "a", ""), b(&g, "b", "");
    a += 1;
    b += 2;
    g.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0);
    EXPECT_DOUBLE_EQ(b.value(), 0);
}

TEST(GlobalCounters, AddValueSnapshotReset)
{
    auto &gc = GlobalCounters::instance();
    gc.reset();
    EXPECT_EQ(gc.value("gc_test.never"), 0u);

    gc.add("gc_test.a");
    gc.add("gc_test.a", 4);
    gc.add("gc_test.b", 2);
    EXPECT_EQ(gc.value("gc_test.a"), 5u);
    EXPECT_EQ(gc.value("gc_test.b"), 2u);

    auto snap = gc.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "gc_test.a");
    EXPECT_EQ(snap[0].second, 5u);
    EXPECT_EQ(snap[1].first, "gc_test.b");
    EXPECT_EQ(snap[1].second, 2u);

    gc.reset();
    EXPECT_EQ(gc.value("gc_test.a"), 0u);
    EXPECT_TRUE(gc.snapshot().empty());
}

TEST(GlobalCounters, ConcurrentAddsAllLand)
{
    auto &gc = GlobalCounters::instance();
    gc.reset();
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                gc.add("gc_test.concurrent");
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(gc.value("gc_test.concurrent"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    gc.reset();
}

// TSan-focused stress (run_sanitizers.sh tsan selects *Shared*
// suites): increments racing value/snapshot reads and
// snapshot-then-reset flushes on the singleton. A flush that resets
// between its snapshot and another thread's add drops that add by
// design — each operation is atomic under mtx_, the flush pair is
// not — so the flushed total is bounded, not exact. What must hold
// under TSan is that no operation races on counters_ itself.
TEST(GlobalCountersSharedStress, IncrementsRacingFlushes)
{
    auto &gc = GlobalCounters::instance();
    gc.reset();
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 2000;
    std::atomic<bool> stop{false};

    std::uint64_t flushed = 0;
    std::thread flusher([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (const auto &kv : gc.snapshot())
                flushed += kv.second;
            gc.reset();
            std::this_thread::yield();
        }
    });
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            (void)gc.value("gc_stress.racy");
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t)
        writers.emplace_back([&] {
            for (int i = 0; i < kPerWriter; ++i)
                gc.add("gc_stress.racy");
        });
    for (auto &t : writers)
        t.join();
    stop.store(true, std::memory_order_release);
    flusher.join();
    reader.join();

    flushed += gc.value("gc_stress.racy");
    EXPECT_GT(flushed, 0u);
    EXPECT_LE(flushed,
              static_cast<std::uint64_t>(kWriters * kPerWriter));
    gc.reset();
}

} // namespace
} // namespace stats
} // namespace tlsim
