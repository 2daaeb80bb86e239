#include <gtest/gtest.h>

#include "core/profiler.h"
#include "core/site.h"

namespace tlsim {
namespace {

TEST(ExposedLoadTable, RecordAndLookup)
{
    ExposedLoadTable t(16);
    t.record(100, 0xAAA);
    EXPECT_EQ(t.lookup(100), 0xAAAu);
    EXPECT_EQ(t.lookup(101), 0u);
}

TEST(ExposedLoadTable, DirectMappedConflictEvicts)
{
    ExposedLoadTable t(16);
    t.record(4, 0x111);
    t.record(4 + 16, 0x222); // same index
    EXPECT_EQ(t.lookup(4), 0u);
    EXPECT_EQ(t.lookup(4 + 16), 0x222u);
}

TEST(ExposedLoadTable, ResetClears)
{
    ExposedLoadTable t(16);
    t.record(4, 0x111);
    t.reset();
    EXPECT_EQ(t.lookup(4), 0u);
}

TEST(DependenceProfiler, AccumulatesPerPair)
{
    DependenceProfiler p;
    p.recordViolation(0x10, 0x20, 1000);
    p.recordViolation(0x10, 0x20, 500);
    p.recordViolation(0x30, 0x20, 100);

    auto rep = p.report();
    ASSERT_EQ(rep.size(), 2u);
    EXPECT_EQ(rep[0].loadPc, 0x10u);
    EXPECT_EQ(rep[0].failedCycles, 1500u);
    EXPECT_EQ(rep[0].violations, 2u);
    EXPECT_EQ(rep[1].failedCycles, 100u);
    EXPECT_EQ(p.totalFailedCycles(), 1600u);
    EXPECT_EQ(p.totalViolations(), 3u);
}

TEST(DependenceProfiler, RankedByCost)
{
    DependenceProfiler p;
    p.recordViolation(1, 2, 10);
    p.recordViolation(3, 4, 1000);
    p.recordViolation(5, 6, 100);
    auto rep = p.report();
    ASSERT_EQ(rep.size(), 3u);
    EXPECT_GE(rep[0].failedCycles, rep[1].failedCycles);
    EXPECT_GE(rep[1].failedCycles, rep[2].failedCycles);
}

TEST(DependenceProfiler, OverflowReclaimsCheapestEntry)
{
    DependenceProfiler p(2);
    p.recordViolation(1, 1, 100);
    p.recordViolation(2, 2, 5); // cheapest
    p.recordViolation(3, 3, 50);
    auto rep = p.report();
    ASSERT_EQ(rep.size(), 2u);
    EXPECT_EQ(rep[0].loadPc, 1u);
    EXPECT_EQ(rep[1].loadPc, 3u);
}

TEST(DependenceProfiler, ReportTextResolvesSiteNames)
{
    constexpr Site load_site{SiteId::TestProfilerLoad};
    constexpr Site store_site{SiteId::TestProfilerStore};
    DependenceProfiler p;
    p.recordViolation(load_site.pc, store_site.pc, 777);
    std::string text = p.reportText(5);
    EXPECT_NE(text.find("test.profiler.load"), std::string::npos);
    EXPECT_NE(text.find("test.profiler.store"), std::string::npos);
    EXPECT_NE(text.find("777"), std::string::npos);
}

TEST(DependenceProfiler, ResetClears)
{
    DependenceProfiler p;
    p.recordViolation(1, 2, 10);
    p.reset();
    EXPECT_TRUE(p.report().empty());
    EXPECT_EQ(p.totalViolations(), 0u);
}

} // namespace
} // namespace tlsim
