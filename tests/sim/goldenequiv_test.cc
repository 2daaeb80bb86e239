/**
 * @file
 * Golden equivalence of the conflict-oracle fast path: replaying a
 * captured benchmark with cfg.tls.useConflictOracle on and off must
 * produce bit-identical RunResults -- every bar of Figure 5 and every
 * ablation knob. The oracle may only elide work whose outcome is
 * statically known, never change timing-visible state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/simd.h"
#include "cpu/breakdown.h"
#include "sim/executor.h"
#include "sim/experiment.h"

namespace tlsim {
namespace sim {
namespace {

void
expectSameResult(const RunResult &on, const RunResult &off,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(on.makespan, off.makespan);
    for (unsigned c = 0; c < kNumCats; ++c)
        EXPECT_EQ(on.total.cycles[c], off.total.cycles[c])
            << "breakdown category " << catName(static_cast<Cat>(c));
    EXPECT_EQ(on.txns, off.txns);
    EXPECT_EQ(on.epochs, off.epochs);
    EXPECT_EQ(on.totalInsts, off.totalInsts);
    EXPECT_EQ(on.primaryViolations, off.primaryViolations);
    EXPECT_EQ(on.secondaryViolations, off.secondaryViolations);
    EXPECT_EQ(on.squashes, off.squashes);
    EXPECT_EQ(on.rewoundInsts, off.rewoundInsts);
    EXPECT_EQ(on.subthreadsStarted, off.subthreadsStarted);
    EXPECT_EQ(on.overflowEvents, off.overflowEvents);
    EXPECT_EQ(on.latchWaits, off.latchWaits);
    EXPECT_EQ(on.escapeSkips, off.escapeSkips);
    EXPECT_EQ(on.predictorStalls, off.predictorStalls);
    EXPECT_EQ(on.recordsReplayed, off.recordsReplayed);
    EXPECT_EQ(on.l1Hits, off.l1Hits);
    EXPECT_EQ(on.l1Misses, off.l1Misses);
    EXPECT_EQ(on.l2Hits, off.l2Hits);
    EXPECT_EQ(on.l2Misses, off.l2Misses);
    EXPECT_EQ(on.victimHits, off.victimHits);
    EXPECT_EQ(on.branches, off.branches);
    EXPECT_EQ(on.mispredicts, off.mispredicts);
}

/** One capture per benchmark, shared by every comparison below. */
class GoldenEquivTest : public ::testing::Test
{
  protected:
    static const BenchmarkTraces &traces(tpcc::TxnType type)
    {
        static BenchmarkTraces new_order =
            captureTraces(tpcc::TxnType::NewOrder,
                          ExperimentConfig::testPreset());
        static BenchmarkTraces stock_level =
            captureTraces(tpcc::TxnType::StockLevel,
                          ExperimentConfig::testPreset());
        return type == tpcc::TxnType::NewOrder ? new_order
                                               : stock_level;
    }

    static RunResult
    runWithOracle(Bar bar, const BenchmarkTraces &t,
                  ExperimentConfig cfg, bool oracle)
    {
        cfg.machine.tls.useConflictOracle = oracle;
        return runBar(bar, t, cfg);
    }
};

TEST_F(GoldenEquivTest, AllFigure5BarsAreOracleInvariant)
{
    for (tpcc::TxnType type :
         {tpcc::TxnType::NewOrder, tpcc::TxnType::StockLevel}) {
        const BenchmarkTraces &t = traces(type);
        for (Bar bar : allBars()) {
            ExperimentConfig cfg = ExperimentConfig::testPreset();
            expectSameResult(
                runWithOracle(bar, t, cfg, true),
                runWithOracle(bar, t, cfg, false),
                std::string(tpcc::txnTypeName(type)) + "/" +
                    barName(bar));
        }
    }
}

TEST_F(GoldenEquivTest, AblationKnobsAreOracleInvariant)
{
    struct Variant
    {
        const char *name;
        void (*apply)(TlsConfig &);
    };
    const Variant variants[] = {
        {"lazy-updates",
         [](TlsConfig &t) { t.aggressiveUpdates = false; }},
        {"no-start-table",
         [](TlsConfig &t) { t.useStartTable = false; }},
        {"adaptive-spacing",
         [](TlsConfig &t) { t.adaptiveSpacing = true; }},
        {"dependence-predictor",
         [](TlsConfig &t) { t.useDependencePredictor = true; }},
        {"l1-subthread-aware",
         [](TlsConfig &t) { t.l1SubthreadAware = true; }},
        {"no-victim-cache",
         [](TlsConfig &t) { t.useVictimCache = false; }},
    };
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    for (const Variant &v : variants) {
        ExperimentConfig cfg = ExperimentConfig::testPreset();
        v.apply(cfg.machine.tls);
        expectSameResult(runWithOracle(Bar::Baseline, t, cfg, true),
                         runWithOracle(Bar::Baseline, t, cfg, false),
                         v.name);
    }
}

/**
 * SIMD golden equivalence: every Figure 5 bar replayed with the
 * dispatched kernels (AVX2 where the host has it) and with the scalar
 * reference must produce bit-identical RunResults. The vector kernels
 * may only change how bitmap scans are computed, never what they
 * compute.
 */
class SimdGoldenTest : public GoldenEquivTest
{
  protected:
    void TearDown() override { simd::setForceScalar(false); }

    static RunResult
    runScalar(Bar bar, const BenchmarkTraces &t,
              const ExperimentConfig &cfg, bool scalar)
    {
        simd::setForceScalar(scalar);
        RunResult r = runBar(bar, t, cfg);
        simd::setForceScalar(false);
        return r;
    }
};

TEST_F(SimdGoldenTest, AllFigure5BarsAreSimdInvariant)
{
    for (tpcc::TxnType type :
         {tpcc::TxnType::NewOrder, tpcc::TxnType::StockLevel}) {
        const BenchmarkTraces &t = traces(type);
        for (Bar bar : allBars()) {
            ExperimentConfig cfg = ExperimentConfig::testPreset();
            expectSameResult(
                runScalar(bar, t, cfg, false),
                runScalar(bar, t, cfg, true),
                std::string("simd/") + tpcc::txnTypeName(type) + "/" +
                    barName(bar));
        }
    }
}

TEST_F(SimdGoldenTest, VictimAndSubthreadStressIsSimdInvariant)
{
    // Small victim cache + tight checkpoints: maximises traffic through
    // matchMask64 (victim probes) and maskedUnion64 (SM merges on
    // squash), the two dispatched kernels.
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.machine.tls.subthreadsPerThread = 2;
    cfg.machine.tls.subthreadSpacing = 500;
    expectSameResult(runScalar(Bar::Baseline, t, cfg, false),
                     runScalar(Bar::Baseline, t, cfg, true),
                     "simd/k2-spacing500");
}

TEST_F(GoldenEquivTest, SmallSubthreadBudgetIsOracleInvariant)
{
    // Coarse checkpoints stress the rewind path: more records replay
    // twice, so covered/conflict bits must hold across re-execution.
    const BenchmarkTraces &t = traces(tpcc::TxnType::NewOrder);
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.machine.tls.subthreadsPerThread = 2;
    cfg.machine.tls.subthreadSpacing = 500;
    expectSameResult(runWithOracle(Bar::Baseline, t, cfg, true),
                     runWithOracle(Bar::Baseline, t, cfg, false),
                     "k2-spacing500");
}

} // namespace
} // namespace sim
} // namespace tlsim
