#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/experiment.h"
#include "sim/report.h"

namespace tlsim {
namespace sim {
namespace {

ExperimentConfig
smallCfg()
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.scale.items = 1500;
    cfg.scale.customersPerDistrict = 90;
    cfg.scale.ordersPerDistrict = 90;
    cfg.scale.firstNewOrder = 46;
    cfg.txns = 6;
    cfg.warmupTxns = 1;
    return cfg;
}

/** NEW ORDER's traces under `cfg`, captured once and indexed (heap-held
 *  so the indexes stay bound to the traces they describe). */
std::unique_ptr<BenchmarkTraces>
captureNewOrder(const ExperimentConfig &cfg)
{
    auto traces = std::make_unique<BenchmarkTraces>(
        captureTraces(tpcc::TxnType::NewOrder, cfg));
    traces->buildIndexes(cfg.machine.mem.lineBytes);
    return traces;
}

struct Figure5Fixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        const ExperimentConfig cfg = smallCfg();
        std::unique_ptr<BenchmarkTraces> traces = captureNewOrder(cfg);
        row = new Figure5Row{tpcc::TxnType::NewOrder, {}};
        for (Bar b : allBars())
            row->bars.emplace_back(b, runBar(b, *traces, cfg));
    }

    static void
    TearDownTestSuite()
    {
        delete row;
        row = nullptr;
    }

    static Figure5Row *row;
};

Figure5Row *Figure5Fixture::row = nullptr;

TEST_F(Figure5Fixture, AllBarsPresent)
{
    EXPECT_EQ(row->bars.size(), allBars().size());
    for (Bar b : allBars())
        EXPECT_GT(row->result(b).makespan, 0u);
}

TEST_F(Figure5Fixture, AccountingInvariantHoldsForEveryBar)
{
    for (const auto &[bar, run] : row->bars) {
        EXPECT_EQ(run.total.total(), run.makespan * 4)
            << barName(bar);
    }
}

TEST_F(Figure5Fixture, SequentialMostlyIdles)
{
    const RunResult &seq = row->result(Bar::Sequential);
    // Three of four CPUs idle the entire time.
    EXPECT_GE(static_cast<double>(seq.total[Cat::Idle]) /
                  seq.total.total(),
              0.74);
    EXPECT_EQ(seq.primaryViolations, 0u);
}

TEST_F(Figure5Fixture, TlsSeqOverheadIsModest)
{
    // Paper: software overhead lands between 0.93x and 1.05x.
    double s = row->speedup(Bar::TlsSeq);
    EXPECT_GT(s, 0.80);
    EXPECT_LT(s, 1.25);
}

TEST_F(Figure5Fixture, SubthreadsBeatAllOrNothing)
{
    EXPECT_GT(row->speedup(Bar::Baseline),
              row->speedup(Bar::NoSubthread));
    EXPECT_GT(row->speedup(Bar::Baseline), 1.3);
}

TEST_F(Figure5Fixture, NoSpeculationIsTheUpperBound)
{
    double best = row->speedup(Bar::NoSpeculation);
    EXPECT_GE(best * 1.02, row->speedup(Bar::Baseline));
    EXPECT_EQ(row->result(Bar::NoSpeculation).primaryViolations, 0u);
    EXPECT_EQ(row->result(Bar::NoSpeculation).total[Cat::Failed], 0u);
}

TEST_F(Figure5Fixture, BaselineSuffersLessFailureThanNoSubthread)
{
    const RunResult &base = row->result(Bar::Baseline);
    const RunResult &nosub = row->result(Bar::NoSubthread);
    EXPECT_LT(base.total[Cat::Failed], nosub.total[Cat::Failed]);
    EXPECT_GT(base.subthreadsStarted, 0u);
    EXPECT_EQ(nosub.subthreadsStarted, 0u);
}

TEST_F(Figure5Fixture, ReportRendersAllBars)
{
    std::ostringstream os;
    printFigure5Row(os, *row);
    std::string text = os.str();
    for (Bar b : allBars())
        EXPECT_NE(text.find(barName(b)), std::string::npos);
    EXPECT_NE(text.find("Figure 5: NEW ORDER"), std::string::npos);
}

TEST(Table2, RowLooksLikeTheWorkload)
{
    ExperimentConfig cfg = smallCfg();
    Table2Row row =
        table2Row(tpcc::TxnType::NewOrder, cfg, *captureNewOrder(cfg));
    EXPECT_GT(row.execMcycles, 0.0);
    EXPECT_GT(row.coverage, 0.4);
    EXPECT_LT(row.coverage, 1.0);
    EXPECT_GT(row.threadSizeInsts, 5000);
    EXPECT_GT(row.threadSizeInsts, row.specInstsPerThread);
    EXPECT_GE(row.threadsPerTxn, 4.0);
    EXPECT_LE(row.threadsPerTxn, 15.0);

    std::ostringstream os;
    printTable2(os, {row});
    EXPECT_NE(os.str().find("NEW ORDER"), std::string::npos);
}

TEST(Figure6, SweepRunsAllPoints)
{
    ExperimentConfig cfg = smallCfg();
    cfg.txns = 4;
    std::unique_ptr<BenchmarkTraces> traces = captureNewOrder(cfg);
    std::vector<SweepPoint> points;
    for (unsigned k : {2u, 8u})
        for (std::uint64_t s : {1000u, 5000u})
            points.push_back({k, s, runSweepPoint(k, s, *traces, cfg)});
    ASSERT_EQ(points.size(), 4u);
    for (const auto &p : points) {
        EXPECT_GT(p.run.makespan, 0u);
        EXPECT_EQ(p.run.total.total(), p.run.makespan * 4);
    }

    std::ostringstream os;
    printFigure6(os, "NEW ORDER", points, points[0].run.makespan * 3);
    EXPECT_NE(os.str().find("Figure 6"), std::string::npos);
}

TEST(Figure6, MoreSubthreadsNeverMuchWorse)
{
    // Paper Section 5.1: adding sub-threads does not hurt.
    ExperimentConfig cfg = smallCfg();
    cfg.txns = 4;
    std::unique_ptr<BenchmarkTraces> traces = captureNewOrder(cfg);
    double t2 = static_cast<double>(
        runSweepPoint(2, 2000, *traces, cfg).makespan);
    double t8 = static_cast<double>(
        runSweepPoint(8, 2000, *traces, cfg).makespan);
    EXPECT_LT(t8, t2 * 1.10);
}

TEST(Figure6, SweepPointIsAudited)
{
    // The runtime auditor must reach every sweep point, and attaching
    // it must not change the simulation.
    ExperimentConfig cfg = smallCfg();
    cfg.txns = 4;
    std::unique_ptr<BenchmarkTraces> traces = captureNewOrder(cfg);
    RunResult off = runSweepPoint(8, 5000, *traces, cfg);
    cfg.machine.tls.auditLevel = AuditLevel::Full;
    RunResult full = runSweepPoint(8, 5000, *traces, cfg);
    EXPECT_EQ(off.auditChecks, 0u);
    EXPECT_GT(full.auditChecks, 0u);
    EXPECT_EQ(full.makespan, off.makespan);
    EXPECT_EQ(full.primaryViolations, off.primaryViolations);
}

TEST(Bars, NamesAreStable)
{
    EXPECT_STREQ(barName(Bar::Sequential), "SEQUENTIAL");
    EXPECT_STREQ(barName(Bar::NoSubthread), "NO SUB-THREAD");
    EXPECT_STREQ(barName(Bar::Baseline), "BASELINE");
}

} // namespace
} // namespace sim
} // namespace tlsim
