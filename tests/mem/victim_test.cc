#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "base/config.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "mem/victim.h"
#include "verify/auditor.h"

namespace tlsim {
namespace {

TEST(VictimCache, InsertLookupRemove)
{
    VictimCache v(4);
    EXPECT_FALSE(v.presentLine(10));
    v.insert(10, 0);
    EXPECT_TRUE(v.presentLine(10));
    EXPECT_TRUE(v.present(10, 0));
    EXPECT_FALSE(v.present(10, 1));
    EXPECT_TRUE(v.remove(10, 0));
    EXPECT_FALSE(v.presentLine(10));
    EXPECT_FALSE(v.remove(10, 0));
}

TEST(VictimCache, OccupancyAndFull)
{
    VictimCache v(2);
    EXPECT_EQ(v.occupancy(), 0u);
    v.insert(1, 0);
    v.insert(2, 1);
    EXPECT_TRUE(v.full());
    EXPECT_EQ(v.occupancy(), 2u);
}

TEST(VictimCacheDeathTest, InsertWhenFullPanics)
{
    VictimCache v(1);
    v.insert(1, 0);
    EXPECT_DEATH(v.insert(2, 0), "no free slot");
}

TEST(VictimCache, AccessLineCountsHits)
{
    VictimCache v(4);
    v.insert(5, 2);
    EXPECT_TRUE(v.accessLine(5));
    EXPECT_FALSE(v.accessLine(6));
    EXPECT_EQ(v.hits(), 1u);
}

TEST(VictimCache, MultipleVersionsOfSameLine)
{
    VictimCache v(4);
    v.insert(7, 0);
    v.insert(7, 1);
    EXPECT_TRUE(v.present(7, 0));
    EXPECT_TRUE(v.present(7, 1));
    v.remove(7, 0);
    EXPECT_TRUE(v.presentLine(7));
}

TEST(VictimCache, DropOneCommittedPrefersLruAndSkipsSpec)
{
    VictimCache v(3);
    v.insert(1, kCommittedVersion);
    v.insert(2, kCommittedVersion);
    v.insert(3, 0); // speculative version
    v.accessLine(1); // make line 1 MRU
    bool dropped = v.dropOneCommitted([](Addr l) { return l == 2; });
    // Line 2 carries spec metadata, line 1 is MRU, so... line 2 is
    // skipped and line 1 is the only committed candidate left.
    EXPECT_TRUE(dropped);
    EXPECT_FALSE(v.presentLine(1));
    EXPECT_TRUE(v.presentLine(2));
    EXPECT_TRUE(v.presentLine(3));
}

TEST(VictimCache, DropOneCommittedFailsWhenAllSpec)
{
    VictimCache v(2);
    v.insert(1, 0);
    v.insert(2, kCommittedVersion);
    bool dropped = v.dropOneCommitted([](Addr) { return true; });
    EXPECT_FALSE(dropped);
}

TEST(VictimCache, TakeAllOfVersion)
{
    VictimCache v(4);
    v.insert(1, 0);
    v.insert(2, 0);
    v.insert(3, 1);
    auto lines = v.takeAllOfVersion(0);
    EXPECT_EQ(lines.size(), 2u);
    EXPECT_FALSE(v.presentLine(1));
    EXPECT_FALSE(v.presentLine(2));
    EXPECT_TRUE(v.presentLine(3));
}

TEST(VictimCache, RenameToCommitted)
{
    VictimCache v(4);
    v.insert(9, 2);
    EXPECT_TRUE(v.renameToCommitted(9, 2));
    EXPECT_TRUE(v.present(9, kCommittedVersion));
    EXPECT_FALSE(v.renameToCommitted(9, 2));
}

TEST(VictimCache, ZeroCapacityIsAlwaysFull)
{
    VictimCache v(0);
    EXPECT_TRUE(v.full());
    EXPECT_FALSE(v.accessLine(1));
}

// ---------------------------------------------------------------------
// Overflow behaviour at the paper's Table 1 capacity (64 entries) and
// on the full machine path, where running out of victim-cache space
// must surface as a speculation failure, never silent state loss.
// ---------------------------------------------------------------------

TEST(VictimCacheOverflow, Table1CapacityBoundary)
{
    ASSERT_EQ(MemConfig{}.victimEntries, 64u) << "paper Table 1";
    VictimCache v(MemConfig{}.victimEntries);
    for (Addr line = 0; line < 63; ++line)
        v.insert(line, 0);
    EXPECT_FALSE(v.full());
    EXPECT_EQ(v.occupancy(), 63u);
    v.insert(63, 0); // the 64th entry is the last legal insert
    EXPECT_TRUE(v.full());
    EXPECT_EQ(v.occupancy(), 64u);
    for (Addr line = 0; line < 64; ++line)
        EXPECT_TRUE(v.present(line, 0));
}

TEST(VictimCacheOverflow, CommittedEntriesYieldBeforeSpeculative)
{
    // At capacity, committed lines are sacrificed one by one; only
    // when every entry is speculative is the cache truly stuck.
    VictimCache v(4);
    v.insert(1, kCommittedVersion);
    v.insert(2, 0);
    v.insert(3, 1);
    v.insert(4, kCommittedVersion);
    ASSERT_TRUE(v.full());
    EXPECT_TRUE(v.dropOneCommitted([](Addr) { return false; }));
    EXPECT_TRUE(v.dropOneCommitted([](Addr) { return false; }));
    EXPECT_FALSE(v.dropOneCommitted([](Addr) { return false; }));
    EXPECT_EQ(v.occupancy(), 2u);
}

/** Synthetic-workload builder (same shape as the machine tests). */
class TraceBuilder
{
  public:
    TraceBuilder()
        : mem_(16384, 0)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        tracer_ = std::make_unique<Tracer>(o);
        memRegion_ = TracedRegion(*tracer_, mem_.data(),
                                  mem_.size() * sizeof(mem_[0]));
        pc_ = sitePc(SiteId::TestVictimSite);
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        tracer_->txnBegin();
        tracer_->compute(pc_, 100);
        tracer_->loopBegin();
        for (const auto &body : bodies) {
            tracer_->iterBegin();
            body(*tracer_);
        }
        tracer_->loopEnd();
        tracer_->compute(pc_, 100);
        tracer_->txnEnd();
        return tracer_->takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    std::unique_ptr<Tracer> tracer_;
    TracedRegion memRegion_;
    Pc pc_;
};

/** Four epochs each storing to 64 lines that land in 4 L2 sets. */
WorkloadTrace
overflowWorkload(TraceBuilder &b)
{
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int e = 0; e < 4; ++e) {
        bodies.push_back([&b, e](Tracer &t) {
            for (int i = 0; i < 64; ++i) {
                t.store(b.pc(), b.addr(1024 * e + i * 16), 8);
                t.compute(b.pc(), 50);
            }
        });
    }
    return b.loopTxn(bodies);
}

MachineConfig
tinyCacheConfig()
{
    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = 2;
    cfg.tls.subthreadSpacing = 2000;
    cfg.mem.l2Bytes = 4 * 4 * 32; // 4 sets x 4 ways
    cfg.mem.victimEntries = 4;
    return cfg;
}

TEST(VictimCacheOverflow, MachinePathOverflowIsSpeculationFailure)
{
    TraceBuilder b;
    WorkloadTrace w = overflowWorkload(b);
    TlsMachine m(tinyCacheConfig());
    RunResult r = m.run(w, ExecMode::Tls);
    // Overflow must be visible as failed speculation (stall/squash
    // events), with every epoch still retired exactly once.
    EXPECT_GT(r.overflowEvents, 0u);
    EXPECT_EQ(r.epochs, 4u);
    EXPECT_EQ(r.commitOrder.size(), 4u);
    EXPECT_EQ(r.total.total(), r.makespan * 4);
}

TEST(VictimCacheOverflow, OverflowPathSurvivesFullAudit)
{
    // The overflow/recovery path must uphold every protocol invariant:
    // an access denied for lack of victim space performs no partial
    // metadata update, so the auditor sees a consistent machine both
    // before the stall and after the recovery squash.
    TraceBuilder b;
    WorkloadTrace w = overflowWorkload(b);

    TlsMachine plain(tinyCacheConfig());
    RunResult r0 = plain.run(w, ExecMode::Tls);

    MachineConfig cfg = tinyCacheConfig();
    cfg.tls.auditLevel = AuditLevel::Full;
    TlsMachine audited(cfg);
    RunResult r1 = verify::runWithAudit(audited, w, ExecMode::Tls);

    EXPECT_GT(r1.overflowEvents, 0u);
    EXPECT_GT(r1.auditChecks, 0u);
    EXPECT_EQ(r0.makespan, r1.makespan);
    EXPECT_EQ(r0.overflowEvents, r1.overflowEvents);
    EXPECT_EQ(r0.commitOrder, r1.commitOrder);
}

} // namespace
} // namespace tlsim
