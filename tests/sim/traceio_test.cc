/**
 * @file
 * Trace file tests: lossless round trips, a format pinned by body
 * digests, the digest trailer catching every bit flip and truncation,
 * and structural rejection of malformed content behind a valid
 * digest. No input may panic the loader.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "base/dethash.h"
#include "base/rng.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "sim/traceio.h"
#include "tpcc/tpcc.h"

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

/** Recompute the trailer of trace-file bytes after editing them. */
std::string
reseal(std::string bytes)
{
    bytes.resize(bytes.size() - 8);
    det::Hash h;
    h.bytes(bytes.data(), bytes.size());
    std::uint64_t d = h.value();
    bytes.append(reinterpret_cast<const char *>(&d), sizeof d);
    return bytes;
}

/** Decode `bytes`, expecting a rejection; returns the reason. */
std::string
rejection(const std::string &bytes)
{
    WorkloadTrace out;
    std::string why = decodeTrace(bytes, &out);
    EXPECT_FALSE(why.empty());
    return why;
}

TEST(TraceIo, RoundTripIsLossless)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    WorkloadTrace back;
    ASSERT_EQ(decodeTrace(encodeTrace(w), &back), "");
    EXPECT_TRUE(tracesEqual(w, back));
}

TEST(TraceIo, ReplayOfReloadedTraceMatches)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    WorkloadTrace back;
    ASSERT_EQ(decodeTrace(encodeTrace(w), &back), "");

    MachineConfig cfg;
    TlsMachine m(cfg);
    RunResult a = m.run(w, ExecMode::Tls);
    RunResult b = m.run(back, ExecMode::Tls);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.primaryViolations, b.primaryViolations);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
}

/** det::Hash of the bytes between the version word and the trailer. */
std::uint64_t
bodyDigest(const std::string &bytes)
{
    det::Hash h;
    h.bytes(bytes.data() + 8, bytes.size() - 16);
    return h.value();
}

TEST(TraceIo, FormatIsUnchanged)
{
    // The bytes after the version word and before the trailer are the
    // v5 format; these digests were taken from the v5 writer. A change
    // to the compiled site table moves them too (its digest is the
    // first field hashed).
    std::vector<std::uint64_t> mem(256);
    EXPECT_EQ(bodyDigest(encodeTrace(sampleWorkload(mem))),
              0x9a1c380b4249d3a5ull);

    tpcc::CaptureOptions o;
    o.scale = tpcc::TpccConfig::tiny();
    o.txns = 4;
    WorkloadTrace w = tpcc::captureBenchmark(tpcc::TxnType::StockLevel, o);
    EXPECT_EQ(bodyDigest(encodeTrace(w)), 0x0c5aa1eb42d87ea5ull);
}

TEST(TraceIo, EveryBitFlipIsRejectedByTheDigest)
{
    // Every bit of a small file: the header, every column (the
    // address column included) and the trailer itself.
    std::vector<std::uint64_t> mem(256);
    const std::string good = encodeTrace(sampleWorkload(mem));
    for (std::size_t at = 0; at < good.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = good;
            bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
            EXPECT_NE(rejection(bad).find("digest mismatch"),
                      std::string::npos)
                << "byte " << at << " bit " << bit;
        }
    }
}

TEST(TraceIo, SeededBitFlipsOfACaptureAreRejected)
{
    tpcc::CaptureOptions o;
    o.scale = tpcc::TpccConfig::tiny();
    o.txns = 2;
    const std::string good = encodeTrace(
        tpcc::captureBenchmark(tpcc::TxnType::NewOrder, o));
    Rng rng(0xF11Bu);
    for (int i = 0; i < 64; ++i) {
        std::size_t at = rng.next() % good.size();
        int bit = static_cast<int>(rng.next() % 8);
        std::string bad = good;
        bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
        EXPECT_NE(rejection(bad).find("digest mismatch"),
                  std::string::npos)
            << "byte " << at << " bit " << bit;
    }
}

TEST(TraceIo, EveryTruncationIsRejectedByTheDigest)
{
    std::vector<std::uint64_t> mem(256);
    const std::string good = encodeTrace(sampleWorkload(mem));
    for (std::size_t len = 0; len < good.size(); ++len)
        EXPECT_NE(rejection(good.substr(0, len)).find("digest mismatch"),
                  std::string::npos)
            << "length " << len;
}

TEST(TraceIo, TruncatedBodyBehindAValidDigestIsRejected)
{
    // The decoder's own bounds checks, reached only when the digest
    // matches: every cut of the body, resealed, is "truncated".
    std::vector<std::uint64_t> mem(256);
    const std::string good = encodeTrace(sampleWorkload(mem));
    const std::size_t body_end = good.size() - 8;
    for (std::size_t len = 16; len < body_end; ++len) {
        std::string cut = good.substr(0, len) + good.substr(body_end);
        EXPECT_NE(rejection(reseal(cut)).find("truncated"),
                  std::string::npos)
            << "length " << len;
    }
}

TEST(TraceIo, RejectsTrailingBytes)
{
    std::vector<std::uint64_t> mem(256);
    std::string bytes = encodeTrace(sampleWorkload(mem));
    bytes.insert(bytes.size() - 8, "x");
    EXPECT_NE(rejection(reseal(bytes)).find("after the last transaction"),
              std::string::npos);
}

TEST(TraceIo, RejectsForeignFiles)
{
    EXPECT_NE(rejection("this is not a trace file at all")
                  .find("digest mismatch"),
              std::string::npos);
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::vector<std::uint64_t> mem(256);
    std::string bytes = encodeTrace(sampleWorkload(mem));
    std::uint32_t version = kTraceVersion + 1;
    std::memcpy(bytes.data() + 4, &version, sizeof version);
    // With a digest (a later format) and without (damage, or an
    // earlier format without a trailer), the reason names the version.
    EXPECT_NE(rejection(reseal(bytes)).find("format version 7"),
              std::string::npos);
    EXPECT_NE(rejection(bytes).find("format version 7"),
              std::string::npos);
}

TEST(TraceIo, TruncatedFileIsRejected)
{
    std::vector<std::uint64_t> mem(256);
    std::string full = encodeTrace(sampleWorkload(mem));
    std::string path = ::testing::TempDir() + "/tlsim_cut.trace";
    std::ofstream(path, std::ios::binary) << full.substr(0, full.size() / 2);
    WorkloadTrace out;
    EXPECT_NE(readTraceFile(path, &out).find("digest mismatch"),
              std::string::npos);
    EXPECT_FALSE(loadTraceFile(path, &out));
    std::remove(path.c_str());
}

TEST(TraceIo, FileRoundTrip)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    std::string dir = ::testing::TempDir() + "/tlsim_traceio_" +
                      std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    std::string path = dir + "/w.trace";
    saveTraceFile(path, w);
    saveTraceFile(path, w); // replaces the file in place
    WorkloadTrace back;
    ASSERT_TRUE(loadTraceFile(path, &back));
    EXPECT_TRUE(tracesEqual(w, back));
    std::set<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.insert(e.path().filename().string());
    EXPECT_EQ(names, std::set<std::string>{"w.trace"});
    std::filesystem::remove_all(dir);
}

TEST(TraceIo, MissingFileIsRejected)
{
    WorkloadTrace out;
    EXPECT_NE(readTraceFile(::testing::TempDir() + "/no/such.trace", &out)
                  .find("cannot open"),
              std::string::npos);
}

TEST(TraceIo, PcsNameTheSameSitesAfterReload)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    WorkloadTrace back;
    ASSERT_EQ(decodeTrace(encodeTrace(w), &back), "");
    Pc pc = back.txns[0].sections[0].epochs[0].records[0].pc;
    EXPECT_EQ(siteName(pc), "traceio.test.site");
}

TEST(TraceIo, RejectsAnotherSiteTable)
{
    std::vector<std::uint64_t> mem(256);
    std::string bytes = encodeTrace(sampleWorkload(mem));
    // Header: magic, version (4 bytes each), then the table digest.
    std::uint64_t digest = 0;
    std::memcpy(&digest, bytes.data() + 8, sizeof(digest));
    ASSERT_EQ(digest, siteTableDigest());
    bytes[8] ^= 1;
    EXPECT_EQ(rejection(reseal(bytes)),
              "written against another site table");
}

// --- Loader hardening: structurally malformed files are rejected with
// a clear error, not loaded (and not a crash). The writer serializes
// in-memory structs verbatim, so corrupting the struct before encoding
// produces bytes with exactly the targeted defect and a valid digest.

/** Encode `w` and expect the decoder to reject it for `reason`. */
void
expectRejected(const WorkloadTrace &w, const char *reason)
{
    EXPECT_NE(rejection(encodeTrace(w)).find(reason), std::string::npos)
        << reason;
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
    expectRejected(w, "bad opcode 200");
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
    expectRejected(w, "access size 0");

    WorkloadTrace w2 = sampleWorkload(mem);
    for (auto &r : firstParallelEpoch(w2).records) {
        if (r.op == TraceOp::Store) {
            r.size = 200;
            break;
        }
    }
    expectRejected(w2, "access size 200");
}

TEST(TraceIo, RejectsOutOfBoundsEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    e.escapeSpans[0].second =
        static_cast<std::uint32_t>(e.records.size()); // one past end
    expectRejected(w, "out of bounds");
}

TEST(TraceIo, RejectsInvertedEscapeSpan)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    ASSERT_FALSE(e.escapeSpans.empty());
    std::swap(e.escapeSpans[0].first, e.escapeSpans[0].second);
    expectRejected(w, "unordered");
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
    expectRejected(w, "unordered");
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
    expectRejected(w, "not anchored");
}

TEST(TraceIo, RejectsMoreSpansThanRecords)
{
    std::vector<std::uint64_t> mem(256);
    WorkloadTrace w = sampleWorkload(mem);
    EpochTrace &e = firstParallelEpoch(w);
    e.escapeSpans.assign(e.records.size() + 1, {0, 0});
    expectRejected(w, "escape spans for");
}

TEST(TraceIo, EmptyWorkloadRoundTrips)
{
    WorkloadTrace back;
    ASSERT_EQ(decodeTrace(encodeTrace(WorkloadTrace{}), &back), "");
    EXPECT_TRUE(back.txns.empty());
}

} // namespace
} // namespace sim
} // namespace tlsim
