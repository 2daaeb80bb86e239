#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "sim/traceio.h"

namespace tlsim {
namespace sim {
namespace {

WorkloadTrace
sampleWorkload(std::vector<std::uint64_t> &mem)
{
    Pc pc = sitePc(SiteId::TraceioTestSite);
    Tracer::Options o;
    o.parallelMode = true;
    Tracer t(o);
    TracedRegion region(t, mem.data(), mem.size() * sizeof(mem[0]));
    t.txnBegin();
    t.compute(pc, 500);
    t.loopBegin();
    for (int e = 0; e < 3; ++e) {
        t.iterBegin();
        t.compute(pc, 1000);
        t.load(pc, &mem[e], 8, e == 1);
        t.escapeBegin(pc);
        t.latchAcquire(pc, 5);
        t.compute(pc, 100);
        t.latchRelease(pc, 5);
        t.escapeEnd(pc);
        t.store(pc, &mem[100 + e], 8);
        t.branch(pc, true);
    }
    t.loopEnd();
    t.txnEnd();
    return t.takeWorkload();
}

bool
tracesEqual(const WorkloadTrace &a, const WorkloadTrace &b)
{
    if (a.txns.size() != b.txns.size())
        return false;
    for (std::size_t t = 0; t < a.txns.size(); ++t) {
        const auto &ta = a.txns[t], &tb = b.txns[t];
        if (ta.sections.size() != tb.sections.size())
            return false;
        for (std::size_t s = 0; s < ta.sections.size(); ++s) {
            const auto &sa = ta.sections[s], &sb = tb.sections[s];
            if (sa.parallel != sb.parallel ||
                sa.epochs.size() != sb.epochs.size())
                return false;
            for (std::size_t e = 0; e < sa.epochs.size(); ++e) {
                const auto &ea = sa.epochs[e], &eb = sb.epochs[e];
                if (ea.instCount != eb.instCount ||
                    ea.specInstCount != eb.specInstCount ||
                    ea.escapeSpans != eb.escapeSpans ||
                    ea.records.size() != eb.records.size())
                    return false;
                for (std::size_t r = 0; r < ea.records.size(); ++r) {
                    const auto &ra = ea.records[r];
                    const auto &rb = eb.records[r];
                    if (std::memcmp(&ra, &rb, sizeof(ra)) != 0)
                        return false;
                }
            }
        }
    }
    return true;
}

TEST(TraceIo, RoundTripIsLossless)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    EXPECT_TRUE(tracesEqual(w, back));
}

TEST(TraceIo, ReplayOfReloadedTraceMatches)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));

    MachineConfig cfg;
    TlsMachine m(cfg);
    RunResult a = m.run(w, ExecMode::Tls);
    RunResult b = m.run(back, ExecMode::Tls);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.primaryViolations, b.primaryViolations);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
}

TEST(TraceIo, RejectsForeignFiles)
{
    std::stringstream ss;
    ss << "this is not a trace file at all";
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::stringstream ss;
    std::uint32_t magic = kTraceMagic, version = kTraceVersion + 1;
    ss.write(reinterpret_cast<char *>(&magic), 4);
    ss.write(reinterpret_cast<char *>(&version), 4);
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

TEST(TraceIoDeathTest, TruncatedFilePanics)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    WorkloadTrace out;
    EXPECT_DEATH(loadTrace(cut, &out), "truncated");
}

TEST(TraceIo, FileRoundTrip)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::string path = ::testing::TempDir() + "/tlsim_test.trace";
    saveTraceFile(path, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTraceFile(path, &back));
    EXPECT_TRUE(tracesEqual(w, back));
    std::remove(path.c_str());
}

TEST(TraceIo, PcsNameTheSameSitesAfterReload)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    Pc pc = back.txns[0].sections[0].epochs[0].records[0].pc;
    EXPECT_EQ(siteName(pc), "traceio.test.site");
}

TEST(TraceIo, RejectsAnotherSiteTable)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::stringstream ss;
    saveTrace(ss, w);
    std::string bytes = ss.str();
    // Header: magic, version (4 bytes each), then the table digest.
    std::uint64_t digest = 0;
    std::memcpy(&digest, bytes.data() + 8, sizeof(digest));
    ASSERT_EQ(digest, siteTableDigest());
    bytes[8] ^= 1;
    std::stringstream other(bytes);
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(other, &out));
}

// --- Loader hardening: structurally malformed files are rejected with
// a clear error, not loaded (and not a crash). The writer serializes
// in-memory structs verbatim, so corrupting the struct before saveTrace
// produces a byte-stream with exactly the targeted defect. ------------

/** Save `w` and expect the loader to reject it. */
void
expectRejected(WorkloadTrace &w)
{
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace out;
    EXPECT_FALSE(loadTrace(ss, &out));
}

EpochTrace &
firstParallelEpoch(WorkloadTrace &w)
{
    return w.txns.at(0).sections.at(1).epochs.at(0);
}

TEST(TraceIo, RejectsUnknownOpcode)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    firstParallelEpoch(w).records[0].op = static_cast<TraceOp>(200);
    expectRejected(w);
}

TEST(TraceIo, RejectsMemoryRecordSizeOutOfRange)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    for (auto &r : firstParallelEpoch(w).records) {
        if (r.op == TraceOp::Load) {
            r.size = 0; // memory ops must touch 1..128 bytes
            break;
        }
    }
    expectRejected(w);

    WorkloadTrace w2 = sampleWorkload(mem);
    for (auto &r : firstParallelEpoch(w2).records) {
        if (r.op == TraceOp::Store) {
            r.size = 200;
            break;
        }
    }
    expectRejected(w2);
}

TEST(TraceIo, RejectsOutOfBoundsEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    e.escapeSpans[0].second =
        static_cast<std::uint32_t>(e.records.size()); // one past end
    expectRejected(w);
}

TEST(TraceIo, RejectsInvertedEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    std::swap(e.escapeSpans[0].first, e.escapeSpans[0].second);
    expectRejected(w);
}

TEST(TraceIo, RejectsOverlappingEscapeSpans)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    // Duplicate the first span: the second copy starts at (not after)
    // the previous end, violating the strict ordering invariant.
    e.escapeSpans.push_back(e.escapeSpans[0]);
    expectRejected(w);
}

TEST(TraceIo, RejectsUnanchoredEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    // Shift the span off its EscapeBegin/EscapeEnd records.
    ASSERT_GT(e.escapeSpans[0].first, 0u);
    --e.escapeSpans[0].first;
    --e.escapeSpans[0].second;
    expectRejected(w);
}

TEST(TraceIo, RejectsMoreSpansThanRecords)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    e.escapeSpans.assign(e.records.size() + 1, {0, 0});
    expectRejected(w);
}

TEST(TraceIo, EmptyWorkloadRoundTrips)
{
    WorkloadTrace w;
    std::stringstream ss;
    saveTrace(ss, w);
    WorkloadTrace back;
    ASSERT_TRUE(loadTrace(ss, &back));
    EXPECT_TRUE(back.txns.empty());
}

} // namespace
} // namespace sim
} // namespace tlsim
