#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
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

// GlobalCounters is process-wide and never reset, so every test here
// checks per-name deltas: the value after minus the value before.

TEST(GlobalCounters, AddValueSnapshot)
{
    auto &gc = GlobalCounters::instance();
    EXPECT_EQ(gc.value("gc_test.never"), 0u);

    const std::uint64_t a0 = gc.value("gc_test.a");
    const std::uint64_t b0 = gc.value("gc_test.b");
    gc.add("gc_test.a");
    gc.add("gc_test.a", 4);
    gc.add("gc_test.b", 2);
    EXPECT_EQ(gc.value("gc_test.a") - a0, 5u);
    EXPECT_EQ(gc.value("gc_test.b") - b0, 2u);

    // The snapshot is sorted by name and agrees with value().
    auto snap = gc.snapshot();
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
    std::map<std::string, std::uint64_t> byName(snap.begin(), snap.end());
    EXPECT_EQ(byName.size(), snap.size());
    EXPECT_EQ(byName.count("gc_test.never"), 0u);
    EXPECT_EQ(byName["gc_test.a"], gc.value("gc_test.a"));
    EXPECT_EQ(byName["gc_test.b"], gc.value("gc_test.b"));
}

TEST(GlobalCounters, ConcurrentAddsAllLand)
{
    auto &gc = GlobalCounters::instance();
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    const std::uint64_t before = gc.value("gc_test.concurrent");
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                gc.add("gc_test.concurrent");
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(gc.value("gc_test.concurrent") - before,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

// TSan-focused stress (run_sanitizers.sh tsan selects *Shared*
// suites): increments racing snapshot() and value() reads on the
// singleton. Every operation is atomic under mtx_, so no add is lost:
// the final count is exact, and every read in between sees a value
// no smaller than the read before it.
TEST(GlobalCountersSharedStress, IncrementsRacingFlushes)
{
    auto &gc = GlobalCounters::instance();
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 2000;
    const std::uint64_t before = gc.value("gc_stress.racy");
    std::atomic<bool> stop{false};

    bool snapshotsMonotone = true;
    std::thread flusher([&] {
        std::uint64_t last = before;
        while (!stop.load(std::memory_order_acquire)) {
            for (const auto &kv : gc.snapshot()) {
                if (kv.first != "gc_stress.racy")
                    continue;
                snapshotsMonotone &= kv.second >= last;
                last = kv.second;
            }
            std::this_thread::yield();
        }
    });
    bool valuesMonotone = true;
    std::thread reader([&] {
        std::uint64_t last = before;
        while (!stop.load(std::memory_order_acquire)) {
            const std::uint64_t v = gc.value("gc_stress.racy");
            valuesMonotone &= v >= last;
            last = v;
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

    EXPECT_TRUE(snapshotsMonotone);
    EXPECT_TRUE(valuesMonotone);
    EXPECT_EQ(gc.value("gc_stress.racy") - before,
              static_cast<std::uint64_t>(kWriters * kPerWriter));
}

} // namespace
} // namespace stats
} // namespace tlsim
