/**
 * @file
 * On-disk cache of captured benchmark traces, keyed by everything that
 * influences a capture (benchmark, TPC-C scale, transaction count,
 * seeds, spawn overhead, trace format version).
 *
 * Capture (data load + native transaction execution) dominates short
 * experiments, and every bench binary used to re-capture identical
 * TPC-C traces. With a cache directory, each (benchmark, config) pair
 * is captured exactly once and every later run — in this process or
 * another — replays the same bytes, which also makes bench *output*
 * byte-identical across processes (a fresh capture records raw heap
 * addresses, which change between processes; a reloaded trace does
 * not).
 *
 * Thread safety: captureTracesShared() may be called from concurrent
 * executor tasks. Calls for the same cache stem are serialized
 * single-flight (one capture, everyone else loads the finished
 * files); distinct stems proceed in parallel. Cache traffic is
 * counted in stats::GlobalCounters under "tracecache.*".
 */

#ifndef SIM_TRACECACHE_H
#define SIM_TRACECACHE_H

#include <memory>
#include <string>

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

/**
 * Capture both traces of a benchmark, through the cache.
 *
 * With an empty `cache_dir` this is captureTraces() behind a
 * shared_ptr. Otherwise the pair of trace files under
 * `cache_dir/<BENCH>-<key>.{orig,tls}.trace` is loaded if present and
 * valid, else captured and written. The directory is created on
 * demand. Either way both TraceIndexes are then built in-process from
 * the returned traces: the cache stores traces only, never an index.
 */
SharedTraces captureTracesShared(tpcc::TxnType type,
                                 const ExperimentConfig &cfg,
                                 const std::string &cache_dir = "");

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACECACHE_H
