/**
 * @file
 * On-disk cache of captured benchmark traces, keyed by everything that
 * influences a capture (benchmark, TPC-C scale, transaction count,
 * seeds, spawn overhead, trace format version, site table).
 *
 * A capture runs the benchmark's transactions on a working copy of a
 * loaded database image; a batch of captures loads each distinct
 * (scale, loadSeed) image once, on its first cache miss, so a cold
 * Figure 5 loads one database instead of fourteen. With a cache
 * directory, each (benchmark, config) pair is captured exactly once
 * and every later run — in this process or another — replays the
 * same bytes a fresh capture would record.
 *
 * A cached file that does not load is damaged (the key fixes format
 * and site table): it is warned about by name, counted under
 * "tracecache.corrupt", and captured afresh.
 *
 * Thread safety: captureTracesShared() may be called from concurrent
 * tasks. Trace files are written by rename (sim/traceio.h), so a
 * reader sees a whole file or none; two callers that miss the same
 * stem at once both capture and write the same bytes. Cache traffic
 * is counted in stats::GlobalCounters under "tracecache.*", database
 * loads and trace captures under "tpcc.db_loads" / "tpcc.captures".
 */

#ifndef SIM_TRACECACHE_H
#define SIM_TRACECACHE_H

#include <memory>
#include <string>
#include <vector>

#include "sim/executor.h"
#include "sim/experiment.h"

namespace tlsim {
namespace sim {

/** Captured traces shared read-only across simulation points. */
using SharedTraces = std::shared_ptr<const BenchmarkTraces>;

/**
 * Cache key for one benchmark capture under `cfg` — a stable hex
 * digest of every capture-relevant parameter. Replay-only knobs
 * (machine config, warmup) do not contribute.
 */
std::string traceCacheKey(tpcc::TxnType type,
                          const ExperimentConfig &cfg);

/** One benchmark capture of a batch. */
struct CaptureRequest
{
    tpcc::TxnType type;
    ExperimentConfig cfg;
};

/**
 * Capture both traces of each requested benchmark, through the cache,
 * in request order.
 *
 * With an empty `cache_dir` every request is captured. Otherwise the
 * pair of trace files under `cache_dir/<BENCH>-<key>.{orig,tls}.trace`
 * is loaded if present and valid, else captured and written (a
 * present but invalid pair is warned about first). The
 * directory is created on demand. Either way both TraceIndexes are
 * then built in-process from the returned traces: the cache stores
 * traces only, never an index.
 *
 * Captures draw their database images from `images`, which loads each
 * distinct (scale, loadSeed) on first request. Without one, the batch
 * uses its own and drops the images once its captures are done, before
 * the indexes are built: a warm batch loads none, a cold one loads
 * each once, and no image outlives the call. Captures and loads run in
 * request order on the caller; the
 * indexes, a pure function of each trace, are built across `ex` when
 * given.
 */
std::vector<SharedTraces>
captureTracesShared(const std::vector<CaptureRequest> &batch,
                    const std::string &cache_dir,
                    tpcc::ImageLoader *images = nullptr,
                    SimExecutor *ex = nullptr);

/** A batch of one. */
SharedTraces captureTracesShared(tpcc::TxnType type,
                                 const ExperimentConfig &cfg,
                                 const std::string &cache_dir = "");

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACECACHE_H
