#include <gtest/gtest.h>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

TEST(TracerChunking, LongComputeSplitsIntoBoundedRecords)
{
    Tracer t;
    t.txnBegin();
    t.compute(1, 7000);
    t.txnEnd();
    const auto &recs =
        t.workload().txns.at(0).sections.at(0).epochs.at(0).records;
    ASSERT_EQ(recs.size(), 4u); // 2000+2000+2000+1000
    InstCount total = 0;
    for (const auto &r : recs) {
        EXPECT_EQ(r.op, TraceOp::Compute);
        EXPECT_LE(r.addr, Tracer::kMaxComputeChunk);
        total += r.addr;
    }
    EXPECT_EQ(total, 7000u);
}

TEST(TracerChunking, ExactMultipleProducesNoEmptyTail)
{
    Tracer t;
    t.txnBegin();
    t.compute(1, 4000);
    t.txnEnd();
    const auto &recs =
        t.workload().txns.at(0).sections.at(0).epochs.at(0).records;
    EXPECT_EQ(recs.size(), 2u);
}

TEST(TracerChunking, ChunksPreserveComputeClass)
{
    Tracer t;
    t.txnBegin();
    t.compute(1, 5000, ComputeClass::Fp);
    t.txnEnd();
    for (const auto &r : t.workload()
                             .txns.at(0)
                             .sections.at(0)
                             .epochs.at(0)
                             .records)
        EXPECT_EQ(static_cast<ComputeClass>(r.aux), ComputeClass::Fp);
}

TEST(TracerChunking, SubthreadsCanCheckpointInsideLongComputation)
{
    // A single 40k-instruction computation must not prevent the
    // machine from spawning sub-threads along the way.
    Pc pc = sitePc(SiteId::ChunkTest);
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    t.txnBegin();
    t.loopBegin();
    t.iterBegin();
    t.compute(pc, 40000);
    t.loopEnd();
    t.txnEnd();

    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = 8;
    cfg.tls.subthreadSpacing = 5000;
    TlsMachine m(cfg);
    RunResult r = m.run(t.takeWorkload(), ExecMode::Tls);
    EXPECT_EQ(r.subthreadsStarted, 7u); // the context budget
}

TEST(Machine, MaximumContextConfigurationWorks)
{
    // 8 CPUs x 8 sub-threads = 64 contexts: the SpecState limit.
    std::vector<std::uint64_t> mem(8192);
    Pc pc = sitePc(SiteId::MaxctxTest);
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    TracedRegion region(t, mem.data(), mem.size() * sizeof(mem[0]));
    t.txnBegin();
    t.loopBegin();
    for (int e = 0; e < 16; ++e) {
        t.iterBegin();
        t.compute(pc, 8000);
        t.load(pc, &mem[e % 4], 8);   // some sharing
        t.store(pc, &mem[64 + e], 8); // context 63 exercises bit 63
        t.compute(pc, 4000);
    }
    t.loopEnd();
    t.txnEnd();

    MachineConfig cfg;
    cfg.tls.numCpus = 8;
    cfg.tls.subthreadsPerThread = 8;
    cfg.tls.subthreadSpacing = 1000;
    TlsMachine m(cfg);
    RunResult r = m.run(t.takeWorkload(), ExecMode::Tls);
    EXPECT_EQ(r.epochs, 16u);
    EXPECT_EQ(r.total.total(), r.makespan * 8);
}

TEST(MachineDeathTest, TooManyContextsIsFatal)
{
    MachineConfig cfg;
    cfg.tls.numCpus = 8;
    cfg.tls.subthreadsPerThread = 9; // 72 > 64
    // SpecState's constructor panics before the machine's own fatal()
    // check runs; either way the process dies with a context message.
    EXPECT_DEATH(TlsMachine m(cfg), "contexts|at most");
}

} // namespace
} // namespace tlsim
