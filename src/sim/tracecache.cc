#include "sim/tracecache.h"

#include <filesystem>
#include <map>
#include <memory>

#include "base/log.h"
#include "base/stats.h"
#include "base/sync.h"
#include "base/threadannot.h"
#include "sim/traceio.h"

namespace tlsim {
namespace sim {

namespace {

/**
 * Per-stem capture serialization. Two simulation points wanting the
 * same (benchmark, config) capture used to race the load-or-capture
 * sequence: both would miss, both would run the expensive capture, and
 * both would write the same .trace files concurrently — a torn
 * file for any later reader. Callers now hold the stem's mutex across
 * the whole sequence, so the first caller captures and everyone else
 * loads the finished bytes ("single-flight"). Distinct stems stay
 * fully parallel; the registry lock only covers the map probe.
 */
class StemLocks
{
  public:
    static StemLocks &instance()
    {
        static StemLocks locks;
        return locks;
    }

    /** The (process-lifetime) mutex serializing work on `stem`. */
    Mutex &forStem(const std::string &stem) TLSIM_EXCLUDES(mtx_)
    {
        MutexLock lk(mtx_);
        auto &slot = locks_[stem];
        if (!slot)
            slot = std::make_unique<Mutex>();
        return *slot;
    }

  private:
    Mutex mtx_;
    std::map<std::string, std::unique_ptr<Mutex>> locks_
        TLSIM_GUARDED_BY(mtx_);
};

/** FNV-1a, accumulated field by field. */
struct KeyHash
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const char *s)
    {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 1099511628211ull;
        }
    }
};

std::string
fileStem(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    std::string name = tpcc::txnTypeName(type);
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name + "-" + traceCacheKey(type, cfg);
}

} // namespace

std::string
traceCacheKey(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    KeyHash k;
    k.mix(kTraceVersion);
    k.mix(tpcc::txnTypeName(type));
    k.mix(cfg.scale.items);
    k.mix(cfg.scale.districts);
    k.mix(cfg.scale.customersPerDistrict);
    k.mix(cfg.scale.ordersPerDistrict);
    k.mix(cfg.scale.firstNewOrder);
    k.mix(cfg.txns);
    k.mix(cfg.inputSeed);
    k.mix(cfg.loadSeed);
    k.mix(cfg.machine.tls.spawnOverheadInsts);
    return strfmt("%016llx", static_cast<unsigned long long>(k.h));
}

namespace {

/**
 * Load the trace pair for (type, cfg) from `cache_dir`, or capture it
 * (and, with a cache directory, write it there). The returned traces
 * carry no indexes yet.
 */
std::shared_ptr<BenchmarkTraces>
loadOrCapture(tpcc::TxnType type, const ExperimentConfig &cfg,
              const std::string &cache_dir)
{
    if (cache_dir.empty()) {
        stats::GlobalCounters::instance().add("tracecache.bypass");
        return std::make_shared<BenchmarkTraces>(
            captureTraces(type, cfg));
    }

    namespace fs = std::filesystem;
    std::string stem =
        (fs::path(cache_dir) / fileStem(type, cfg)).string();
    std::string orig_path = stem + ".orig.trace";
    std::string tls_path = stem + ".tls.trace";

    // Single-flight: concurrent callers of the same stem serialize
    // here; the first one through captures (or loads) and the rest
    // load the files it finished writing.
    MutexLock stem_lock(StemLocks::instance().forStem(stem));

    if (fs::exists(orig_path) && fs::exists(tls_path)) {
        auto traces = std::make_shared<BenchmarkTraces>();
        WorkloadTrace orig, tls;
        if (loadTraceFile(orig_path, &orig) &&
            loadTraceFile(tls_path, &tls)) {
            traces->original = std::move(orig);
            traces->tls = std::move(tls);
            stats::GlobalCounters::instance().add("tracecache.hit");
            return traces;
        }
        inform("trace cache: %s has a foreign format, re-capturing",
               stem.c_str());
    }

    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    if (ec)
        fatal("trace cache: cannot create directory %s: %s",
              cache_dir.c_str(), ec.message().c_str());

    stats::GlobalCounters::instance().add("tracecache.capture");
    auto traces =
        std::make_shared<BenchmarkTraces>(captureTraces(type, cfg));
    saveTraceFile(orig_path, traces->original);
    saveTraceFile(tls_path, traces->tls);
    return traces;
}

} // namespace

SharedTraces
captureTracesShared(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const std::string &cache_dir)
{
    // Indexes are derived state: always analysed from the traces in
    // hand, never read back from disk. Built once the traces sit at
    // their final address (an index references its source workload).
    auto traces = loadOrCapture(type, cfg, cache_dir);
    traces->buildIndexes(cfg.machine.mem.lineBytes);
    return traces;
}

} // namespace sim
} // namespace tlsim
