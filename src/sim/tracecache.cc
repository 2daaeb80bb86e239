#include "sim/tracecache.h"

#include <filesystem>
#include <memory>

#include "base/dethash.h"
#include "base/log.h"
#include "base/stats.h"
#include "core/site.h"
#include "sim/traceio.h"

namespace tlsim {
namespace sim {

std::string
traceCacheKey(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    det::Hash k;
    k.u64(kTraceVersion);
    k.u64(siteTableDigest());
    k.str(tpcc::txnTypeName(type));
    k.u64(cfg.scale.items);
    k.u64(cfg.scale.districts);
    k.u64(cfg.scale.customersPerDistrict);
    k.u64(cfg.scale.ordersPerDistrict);
    k.u64(cfg.scale.firstNewOrder);
    k.u64(cfg.txns);
    k.u64(cfg.inputSeed);
    k.u64(cfg.loadSeed);
    k.u64(cfg.machine.tls.spawnOverheadInsts);
    return k.hex();
}

namespace {

std::string
fileStem(tpcc::TxnType type, const ExperimentConfig &cfg)
{
    std::string name = tpcc::txnTypeName(type);
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name + "-" + traceCacheKey(type, cfg);
}

/**
 * Load the trace pair for (type, cfg) from `cache_dir`, or capture it
 * from an image of `images` (and, with a cache directory, write it
 * there). The returned traces carry no indexes yet.
 */
std::shared_ptr<BenchmarkTraces>
loadOrCapture(tpcc::TxnType type, const ExperimentConfig &cfg,
              const std::string &cache_dir, tpcc::ImageLoader &images)
{
    auto capture = [&] {
        return std::make_shared<BenchmarkTraces>(captureTraces(
            type, cfg, images.get(cfg.scale, cfg.loadSeed)));
    };
    if (cache_dir.empty())
        return capture();

    namespace fs = std::filesystem;
    std::string stem =
        (fs::path(cache_dir) / fileStem(type, cfg)).string();
    std::string orig_path = stem + ".orig.trace";
    std::string tls_path = stem + ".tls.trace";

    // The key names the format version and site table, so a file
    // under this stem that does not load is damaged: say so, count
    // it, and capture afresh. Files are written by rename, so a
    // concurrent writer of the same stem is never seen half done.
    if (fs::exists(orig_path) && fs::exists(tls_path)) {
        auto traces = std::make_shared<BenchmarkTraces>();
        const std::string *path = &orig_path;
        std::string why = readTraceFile(*path, &traces->original);
        if (why.empty()) {
            path = &tls_path;
            why = readTraceFile(*path, &traces->tls);
        }
        if (why.empty()) {
            stats::GlobalCounters::instance().add("tracecache.hit");
            return traces;
        }
        warn("trace cache: %s: %s; re-capturing", path->c_str(),
             why.c_str());
        stats::GlobalCounters::instance().add("tracecache.corrupt");
    }

    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    if (ec)
        fatal("trace cache: cannot create directory %s: %s",
              cache_dir.c_str(), ec.message().c_str());

    stats::GlobalCounters::instance().add("tracecache.capture");
    auto traces = capture();
    saveTraceFile(orig_path, traces->original);
    saveTraceFile(tls_path, traces->tls);
    return traces;
}

} // namespace

std::vector<SharedTraces>
captureTracesShared(const std::vector<CaptureRequest> &batch,
                    const std::string &cache_dir,
                    tpcc::ImageLoader *images, SimExecutor *ex)
{
    // The batch's own images die with this scope, before the indexes
    // below add to peak memory.
    std::vector<std::shared_ptr<BenchmarkTraces>> traces;
    {
        tpcc::ImageLoader own;
        for (const CaptureRequest &r : batch)
            traces.push_back(loadOrCapture(r.type, r.cfg, cache_dir,
                                           images ? *images : own));
    }
    // Indexes are derived state: always analysed from the traces in
    // hand, never read back from disk. Built once the traces sit at
    // their final address (an index references its source workload).
    auto index = [&](std::size_t i) {
        traces[i]->buildIndexes(batch[i].cfg.machine.mem.lineBytes);
    };
    if (ex)
        ex->parallelFor(traces.size(), index);
    else
        for (std::size_t i = 0; i < traces.size(); ++i)
            index(i);
    return {traces.begin(), traces.end()};
}

SharedTraces
captureTracesShared(tpcc::TxnType type, const ExperimentConfig &cfg,
                    const std::string &cache_dir)
{
    return captureTracesShared({{type, cfg}}, cache_dir).front();
}

} // namespace sim
} // namespace tlsim
