/**
 * @file
 * Trace-cache tests: key stability/distinctness, the on-disk roundtrip
 * (the second captureTracesShared() loads from disk and must replay
 * identically to the first), and that the cache holds traces only:
 * every load re-derives its indexes from the traces themselves.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "base/stats.h"
#include "core/resulthash.h"
#include "core/traceindex.h"
#include "sim/executor.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"
#include "verify/checker.h"

namespace tlsim {
namespace sim {
namespace {

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg = ExperimentConfig::testPreset();
    cfg.txns = 4;
    cfg.warmupTxns = 1;
    return cfg;
}

std::string
freshCacheDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/tlsim_tc_" + tag + "_" +
                      std::to_string(::getpid());
    return dir;
}

std::set<std::string>
filesIn(const std::string &dir)
{
    std::set<std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        out.insert(e.path().filename().string());
    return out;
}

template <typename T>
void
put(std::ostream &os, T v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

/**
 * Write a well-formed index file in the layout older trace caches kept
 * beside each trace ("TLIX", version 1, line bytes, class totals, max
 * section lines, epoch count, then per epoch a record count and one
 * flag byte per record), with every flag byte zero: no conflict lines,
 * no covered loads. Trusting it would drop every violation.
 */
void
writeLegacyZeroIndex(const std::string &path, const WorkloadTrace &w,
                     const TraceIndex &shape)
{
    std::vector<std::uint64_t> counts;
    for (const TransactionTrace &txn : w.txns)
        for (const TraceSection &sec : txn.sections)
            for (const EpochTrace &e : sec.epochs)
                counts.push_back(e.records.size());

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    put<std::uint32_t>(os, 0x58494c54); // "TLIX"
    put<std::uint32_t>(os, 1);
    put<std::uint32_t>(os, shape.lineBytes());
    put<std::uint64_t>(os, shape.totals().epochPrivate);
    put<std::uint64_t>(os, shape.totals().readShared);
    put<std::uint64_t>(os, shape.totals().conflict);
    put<std::uint64_t>(os, shape.maxSectionLines());
    put<std::uint64_t>(os, counts.size());
    for (std::uint64_t n : counts) {
        put<std::uint64_t>(os, n);
        std::vector<char> zero(n, 0);
        os.write(zero.data(), static_cast<std::streamsize>(n));
    }
    ASSERT_TRUE(os.good()) << path;
}

TEST(TraceCacheKey, StableForIdenticalConfigs)
{
    ExperimentConfig a = tinyConfig();
    ExperimentConfig b = tinyConfig();
    EXPECT_EQ(traceCacheKey(tpcc::TxnType::NewOrder, a),
              traceCacheKey(tpcc::TxnType::NewOrder, b));
}

TEST(TraceCacheKey, DistinguishesCaptureParameters)
{
    ExperimentConfig base = tinyConfig();
    std::string k0 = traceCacheKey(tpcc::TxnType::NewOrder, base);

    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::Payment, base));

    ExperimentConfig more_txns = base;
    more_txns.txns += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, more_txns));

    ExperimentConfig other_seed = base;
    other_seed.inputSeed += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, other_seed));

    ExperimentConfig other_load = base;
    other_load.loadSeed += 1;
    EXPECT_NE(k0, traceCacheKey(tpcc::TxnType::NewOrder, other_load));
}

TEST(TraceCacheKey, IgnoresReplayOnlyKnobs)
{
    ExperimentConfig base = tinyConfig();
    ExperimentConfig replay = base;
    replay.warmupTxns += 1;
    replay.machine.tls.subthreadsPerThread += 2;
    EXPECT_EQ(traceCacheKey(tpcc::TxnType::NewOrder, base),
              traceCacheKey(tpcc::TxnType::NewOrder, replay));
}

TEST(TraceCache, EmptyDirBypassesDisk)
{
    ExperimentConfig cfg = tinyConfig();
    SharedTraces t =
        captureTracesShared(tpcc::TxnType::StockLevel, cfg, "");
    ASSERT_NE(t, nullptr);
    EXPECT_FALSE(t->tls.txns.empty());
}

std::uint64_t
counter(const char *name)
{
    return stats::GlobalCounters::instance().value(name);
}

TEST(TraceCache, CaptureTracesLoadsOnce)
{
    // The original and the TLS capture share one database image.
    std::uint64_t loads = counter("tpcc.db_loads");
    std::uint64_t caps = counter("tpcc.captures");
    BenchmarkTraces t = captureTraces(tpcc::TxnType::Payment, tinyConfig());
    EXPECT_FALSE(t.original.txns.empty());
    EXPECT_EQ(counter("tpcc.db_loads") - loads, 1u);
    EXPECT_EQ(counter("tpcc.captures") - caps, 2u);
}

TEST(TraceCache, BatchLoadsEachDatabaseOnceAndWarmLoadsNone)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.txns = 2; // the counts, not the traces, are under test
    std::vector<CaptureRequest> batch;
    for (tpcc::TxnType type : tpcc::allBenchmarks())
        batch.push_back({type, cfg});
    std::string dir = freshCacheDir("batch");

    std::uint64_t loads = counter("tpcc.db_loads");
    std::uint64_t caps = counter("tpcc.captures");
    std::uint64_t hits = counter("tracecache.hit");
    std::vector<SharedTraces> cold = captureTracesShared(batch, dir);
    ASSERT_EQ(cold.size(), batch.size());
    EXPECT_EQ(counter("tpcc.db_loads") - loads, 1u);
    EXPECT_EQ(counter("tpcc.captures") - caps, 2 * batch.size());
    EXPECT_EQ(counter("tracecache.hit") - hits, 0u);

    // Warm: every pair comes from disk, so no image is built.
    loads = counter("tpcc.db_loads");
    caps = counter("tpcc.captures");
    std::vector<SharedTraces> warm = captureTracesShared(batch, dir);
    ASSERT_EQ(warm.size(), batch.size());
    EXPECT_EQ(counter("tpcc.db_loads") - loads, 0u);
    EXPECT_EQ(counter("tpcc.captures") - caps, 0u);
    EXPECT_EQ(counter("tracecache.hit") - hits, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(det::hashWorkloadTrace(cold[i]->tls),
                  det::hashWorkloadTrace(warm[i]->tls))
            << tpcc::txnTypeName(batch[i].type);
        ASSERT_NE(warm[i]->tlsIndex, nullptr);
    }

    // A distinct load seed is a distinct database: one more load.
    batch[0].cfg.loadSeed += 1;
    loads = counter("tpcc.db_loads");
    captureTracesShared(batch, dir);
    EXPECT_EQ(counter("tpcc.db_loads") - loads, 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, SecondLoadReplaysIdentically)
{
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("roundtrip");

    // First call captures and writes the cache files.
    SharedTraces first =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(first, nullptr);

    std::string key = traceCacheKey(tpcc::TxnType::NewOrder, cfg);
    std::string base = dir + "/NEW_ORDER-" + key;
    EXPECT_TRUE(std::ifstream(base + ".orig.trace").good());
    EXPECT_TRUE(std::ifstream(base + ".tls.trace").good());

    // Second call must come from disk and replay identically.
    SharedTraces second =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(second, nullptr);

    for (Bar bar : allBars()) {
        RunResult a = runBar(bar, *first, cfg);
        RunResult b = runBar(bar, *second, cfg);
        EXPECT_EQ(a.makespan, b.makespan) << barName(bar);
        EXPECT_EQ(a.totalInsts, b.totalInsts) << barName(bar);
        EXPECT_EQ(a.primaryViolations, b.primaryViolations)
            << barName(bar);
        EXPECT_EQ(a.epochs, b.epochs) << barName(bar);
    }
}

TEST(TraceCache, ParallelSameKeySingleCapture)
{
    // Concurrent executor tasks asking for the same (benchmark,
    // config) must be serialized single-flight: exactly one capture
    // writes the cache files, everyone else loads them. Before the
    // per-stem lock, two concurrent captures could interleave their
    // writes to the same paths and leave a torn trace on disk.
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("parallel");
    auto &gc = stats::GlobalCounters::instance();
    gc.reset();

    constexpr std::size_t kCallers = 8;
    std::vector<SharedTraces> got(kCallers);
    SimExecutor ex(kCallers);
    ex.parallelFor(kCallers, [&](std::size_t i) {
        got[i] = captureTracesShared(tpcc::TxnType::Delivery, cfg, dir);
    });

    for (std::size_t i = 0; i < kCallers; ++i)
        ASSERT_NE(got[i], nullptr) << "caller " << i;
    EXPECT_EQ(gc.value("tracecache.capture"), 1u);
    EXPECT_EQ(gc.value("tracecache.hit"), kCallers - 1);

    // The files the racers left behind are complete and loadable.
    std::string key = traceCacheKey(tpcc::TxnType::Delivery, cfg);
    std::string base = dir + "/DELIVERY-" + key;
    WorkloadTrace orig, tls;
    EXPECT_TRUE(loadTraceFile(base + ".orig.trace", &orig));
    EXPECT_TRUE(loadTraceFile(base + ".tls.trace", &tls));

    // Every caller sees the same shape (they share one capture).
    for (std::size_t i = 1; i < kCallers; ++i)
        EXPECT_EQ(got[i]->tls.txns.size(), got[0]->tls.txns.size());
    gc.reset();
}

TEST(TraceCache, CorruptCacheFileFallsBackToCapture)
{
    ExperimentConfig cfg = tinyConfig();
    std::string dir = freshCacheDir("corrupt");

    SharedTraces first =
        captureTracesShared(tpcc::TxnType::OrderStatus, cfg, dir);
    ASSERT_NE(first, nullptr);

    std::string key = traceCacheKey(tpcc::TxnType::OrderStatus, cfg);
    std::string path = dir + "/ORDER_STATUS-" + key + ".tls.trace";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "junk that is not a trace";
    }

    // Wrong magic is treated as a miss, not a panic. The re-capture
    // records fresh heap addresses, so compare address-independent
    // structure rather than timing.
    SharedTraces again =
        captureTracesShared(tpcc::TxnType::OrderStatus, cfg, dir);
    ASSERT_NE(again, nullptr);
    ASSERT_EQ(again->tls.txns.size(), first->tls.txns.size());
    for (std::size_t t = 0; t < first->tls.txns.size(); ++t)
        EXPECT_EQ(again->tls.txns[t].sections.size(),
                  first->tls.txns[t].sections.size());

    // The corrupt file was replaced by a valid one.
    WorkloadTrace reloaded;
    EXPECT_TRUE(loadTraceFile(path, &reloaded));
}

TEST(TraceCache, StaleIndexFileIsIgnored)
{
    // An index is derived state. A cache hit must analyse the reloaded
    // traces afresh rather than trust an index file left beside them:
    // a well-formed one with its conflict bits cleared would otherwise
    // make the simulator skip every violation scan, silently.
    ExperimentConfig cfg = tinyConfig();
    unsigned line_bytes = cfg.machine.mem.lineBytes;
    std::string dir = freshCacheDir("stale_idx");

    SharedTraces first =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(first, nullptr);
    ASSERT_GT(first->tlsIndex->totals().conflict, 0u)
        << "capture has no conflict lines to lose";

    std::string base =
        "NEW_ORDER-" + traceCacheKey(tpcc::TxnType::NewOrder, cfg);
    EXPECT_EQ(filesIn(dir), (std::set<std::string>{
                                base + ".orig.trace",
                                base + ".tls.trace"}));

    std::string stale = base + ".tls.idx";
    writeLegacyZeroIndex(dir + "/" + stale, first->tls,
                         *first->tlsIndex);

    std::uint64_t builds_before = TraceIndex::builds();
    SharedTraces second =
        captureTracesShared(tpcc::TxnType::NewOrder, cfg, dir);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(TraceIndex::builds(), builds_before + 2);

    verify::CheckResult chk = verify::checkTrace(second->tls, line_bytes);
    std::vector<std::string> diff = verify::diffAgainstIndex(
        chk, *second->tlsIndex, second->tls);
    EXPECT_TRUE(diff.empty()) << diff.size() << " mismatches, first: "
                              << (diff.empty() ? "" : diff.front());

    for (Bar bar : allBars()) {
        RunResult a = runBar(bar, *first, cfg);
        RunResult b = runBar(bar, *second, cfg);
        EXPECT_EQ(a.makespan, b.makespan) << barName(bar);
        EXPECT_EQ(a.primaryViolations, b.primaryViolations)
            << barName(bar);
        EXPECT_EQ(a.epochs, b.epochs) << barName(bar);
    }

    // The hit wrote nothing: the traces, plus the planted file that
    // no load reads.
    EXPECT_EQ(filesIn(dir),
              (std::set<std::string>{base + ".orig.trace",
                                     base + ".tls.trace", stale}));
}

} // namespace
} // namespace sim
} // namespace tlsim
