/**
 * @file
 * Directed tests for Figure 4(b) selective sub-thread restart: a
 * secondary violation rewinds the receiving thread to the sub-thread
 * its start table recorded for the violated context — not to sub 0,
 * which is the Figure 4(a) whole-thread behaviour the start table
 * exists to avoid.
 *
 * The scenario is pinned on both implementations of the protocol:
 * the abstract model (verify/modelcheck) via an explicit schedule,
 * and the real TlsMachine via the ScheduleOracle seam with the same
 * interleaving. In both, epoch 2 spawns sub-thread 1 *before* epoch 1
 * does, so epoch 2's start-table entry for epoch 1's sub 1 records
 * sub 1 — the point secondary restart must rewind to.
 *
 * Interleaving (epoch = cpu):
 *   e2: Tick, Spawn(sub 1)         — e2 now runs in sub 1
 *   e1: Tick, Spawn(sub 1)         — e2 records start[e1.sub1] = 1
 *   e1: Load line0                 — exposed in e1's sub 1
 *   e0: Store line0                — primary violation of e1 @ sub 1,
 *                                    secondary violation of e2
 *   e2: Rewind                     — to sub 1 (4b) or sub 0 (4a)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/audithooks.h"
#include "core/machine.h"
#include "core/schedulehooks.h"
#include "core/site.h"
#include "core/tracer.h"
#include "verify/modelcheck/explorer.h"
#include "verify/modelcheck/model.h"

namespace tlsim {
namespace {

using verify::mc::ModelConfig;
using verify::mc::ModelState;
using verify::mc::Op;
using verify::mc::OpKind;
using verify::mc::Program;
using verify::mc::StepKind;
using verify::mc::StepRecord;

ModelConfig
scenarioConfig(bool use_start_table)
{
    ModelConfig cfg;
    cfg.epochs = 3;
    cfg.k = 2;
    cfg.lines = 2;
    cfg.spacing = 1;
    cfg.useStartTable = use_start_table;
    return cfg;
}

std::vector<Program>
scenarioPrograms()
{
    Op tick{OpKind::Tick, 0};
    Op load0{OpKind::Load, 0};
    Op load1{OpKind::Load, 1};
    Op store0{OpKind::Store, 0};
    return {{store0}, {tick, load0}, {tick, load1}};
}

/** Steps of the directed interleaving, by epoch id. */
const std::vector<unsigned> kPrefix = {2, 2, 1, 1, 1, 0, 2};

// ---------------------------------------------------------------------
// Model path
// ---------------------------------------------------------------------

TEST(Fig4bSelectiveRestartModel, SecondaryRewindsToStartTableSub)
{
    std::vector<StepRecord> steps;
    ModelState st = verify::mc::runSchedule(
        scenarioConfig(/*use_start_table=*/true), scenarioPrograms(),
        kPrefix, &steps);

    // The store was the violating step; the final step applied epoch
    // 2's secondary squash.
    ASSERT_EQ(steps.size(), kPrefix.size());
    EXPECT_TRUE(steps[5].violating);
    EXPECT_EQ(steps[6].kind, StepKind::Rewind);
    EXPECT_EQ(st.primaryViolations(), 1u);
    EXPECT_EQ(st.secondaryViolations(), 1u);

    // Figure 4(b): epoch 2 resumed in sub-thread 1, the sub its start
    // table recorded when epoch 1 spawned — its sub-0 work survives.
    EXPECT_EQ(st.curSub(2), 1u);
}

TEST(Fig4bSelectiveRestartModel, WholeThreadModeRewindsToSubZero)
{
    ModelState st = verify::mc::runSchedule(
        scenarioConfig(/*use_start_table=*/false), scenarioPrograms(),
        kPrefix);

    EXPECT_EQ(st.primaryViolations(), 1u);
    EXPECT_EQ(st.secondaryViolations(), 1u);
    // Figure 4(a): without the start table the secondary violation
    // restarts the whole thread.
    EXPECT_EQ(st.curSub(2), 0u);
}

TEST(Fig4bSelectiveRestartModel, PrimaryRewindsToExposedLoadSub)
{
    // The violated thread itself always rewinds only to the sub-thread
    // containing the exposed load, in both modes (Section 3).
    for (bool use_start_table : {true, false}) {
        // Extend the prefix by epoch 1's rewind.
        std::vector<unsigned> schedule = kPrefix;
        schedule.push_back(1);
        std::vector<StepRecord> steps;
        ModelState st = verify::mc::runSchedule(
            scenarioConfig(use_start_table), scenarioPrograms(),
            schedule, &steps);
        EXPECT_EQ(steps.back().kind, StepKind::Rewind);
        EXPECT_EQ(st.curSub(1), 1u) << "start table "
                                    << use_start_table;
    }
}

// ---------------------------------------------------------------------
// Machine path
// ---------------------------------------------------------------------

/** Records squash (cpu, sub) pairs; everything else ignored. */
class SquashLog : public AuditSink
{
  public:
    void onRunStart(const AuditView &) override {}
    void onEpochStart(const AuditView &, CpuId, std::uint64_t) override
    {
    }
    void onSpawn(const AuditView &, CpuId, unsigned) override {}
    void onAccess(const AuditView &, CpuId, Addr) override {}
    void onCommit(const AuditView &, CpuId, std::uint64_t) override {}
    void
    onSquash(const AuditView &, CpuId cpu, unsigned sub) override
    {
        squashes_.push_back({cpu, sub});
    }
    std::uint64_t checks() const override { return 0; }

    const std::vector<std::pair<CpuId, unsigned>> &
    squashes() const
    {
        return squashes_;
    }

  private:
    std::vector<std::pair<CpuId, unsigned>> squashes_;
};

/** Plays a fixed cpu-id sequence, then falls back to the machine's
 *  own policy to drain the run. */
class PrefixOracle : public ScheduleOracle
{
  public:
    explicit PrefixOracle(std::vector<unsigned> cpus)
        : cpus_(std::move(cpus))
    {
    }

    std::size_t
    pick(const std::vector<ScheduleChoice> &choices) override
    {
        if (next_ >= cpus_.size())
            return kDefaultPick;
        for (std::size_t i = 0; i < choices.size(); ++i)
            if (choices[i].cpu == cpus_[next_]) {
                ++next_;
                return i;
            }
        ADD_FAILURE() << "cpu " << cpus_[next_]
                      << " not runnable at prefix step " << next_;
        return kDefaultPick;
    }

    bool done() const { return next_ == cpus_.size(); }

  private:
    std::vector<unsigned> cpus_;
    std::size_t next_ = 0;
};

/** The model scenario lowered to a captured trace: one loop iteration
 *  per epoch, 4-byte accesses at distinct lines. */
WorkloadTrace
scenarioTrace(std::vector<std::uint64_t> &buf)
{
    Tracer::Options topts;
    topts.parallelMode = true;
    topts.spawnOverheadInsts = 0;
    Tracer tracer(topts);
    TracedRegion region(tracer, buf.data(), buf.size() * sizeof(buf[0]));
    Pc pc = sitePc(SiteId::VerifyFig4bTest);
    tracer.txnBegin();
    tracer.loopBegin();
    // e0: Store line0
    tracer.iterBegin();
    tracer.store(pc, &buf[0], 4);
    // e1: Tick, Load line0
    tracer.iterBegin();
    tracer.compute(pc, 100);
    tracer.load(pc, &buf[0], 4);
    // e2: Tick, Load line1
    tracer.iterBegin();
    tracer.compute(pc, 100);
    tracer.load(pc, &buf[8], 4);
    tracer.loopEnd();
    tracer.txnEnd();
    return tracer.takeWorkload();
}

void
runMachineScenario(bool use_start_table, SquashLog &log)
{
    std::vector<std::uint64_t> buf(16, 0);
    WorkloadTrace workload = scenarioTrace(buf);

    MachineConfig cfg;
    cfg.tls.numCpus = 3;
    cfg.tls.subthreadsPerThread = 2;
    cfg.tls.subthreadSpacing = 1;
    cfg.tls.adaptiveSpacing = false;
    cfg.tls.useStartTable = use_start_table;
    cfg.tls.useConflictOracle = false;
    cfg.tls.useDependencePredictor = false;
    cfg.tls.auditLevel = AuditLevel::Full;

    TlsMachine machine(cfg);
    machine.setAuditSink(&log);
    PrefixOracle oracle(kPrefix);
    machine.setScheduleOracle(&oracle);
    RunResult res = machine.run(workload, ExecMode::Tls);
    EXPECT_TRUE(oracle.done());
    EXPECT_EQ(res.primaryViolations, 1u);
    EXPECT_EQ(res.secondaryViolations, 1u);
}

TEST(Fig4bSelectiveRestartMachine, SecondaryRewindsToStartTableSub)
{
    SquashLog log;
    runMachineScenario(/*use_start_table=*/true, log);

    // Two squashes total: the primary on cpu 1 (to its exposed-load
    // sub 1) and the secondary on cpu 2 — to sub 1, the start-table
    // entry recorded when epoch 1 spawned.
    ASSERT_EQ(log.squashes().size(), 2u);
    EXPECT_EQ(log.squashes()[0], (std::pair<CpuId, unsigned>{2, 1}));
    EXPECT_EQ(log.squashes()[1], (std::pair<CpuId, unsigned>{1, 1}));
}

TEST(Fig4bSelectiveRestartMachine, WholeThreadModeRewindsToSubZero)
{
    SquashLog log;
    runMachineScenario(/*use_start_table=*/false, log);

    ASSERT_EQ(log.squashes().size(), 2u);
    // Figure 4(a): the secondary on cpu 2 loses all sub-thread work.
    EXPECT_EQ(log.squashes()[0], (std::pair<CpuId, unsigned>{2, 0}));
    // The primary still rewinds only to the exposed load's sub.
    EXPECT_EQ(log.squashes()[1], (std::pair<CpuId, unsigned>{1, 1}));
}

} // namespace
} // namespace tlsim
