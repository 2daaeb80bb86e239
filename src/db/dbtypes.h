/**
 * @file
 * Common types for minidb, the storage manager standing in for
 * BerkeleyDB: it provides the same structural ingredients the paper's
 * evaluation leans on — slotted pages, a buffer pool, B+-trees, page
 * latches, row locks, and a write-ahead log — and is instrumented so
 * every access to shared database memory lands in the trace, at the
 * synthetic address of the object it touches.
 */

#ifndef DB_DBTYPES_H
#define DB_DBTYPES_H

#include <cstdint>
#include <string>
#include <string_view>

namespace tlsim {
namespace db {

using PageId = std::uint32_t;
using TableId = std::uint32_t;
using TxnId = std::uint64_t;
using Lsn = std::uint64_t;

inline constexpr PageId kInvalidPage = 0;
inline constexpr unsigned kPageSize = 4096;

/** Keys and values are raw byte strings ordered by memcmp. */
using Bytes = std::string;
using BytesView = std::string_view;

/**
 * Database configuration. `tuned` selects the TLS-optimized code paths
 * of the authors' VLDB'05 iterative tuning:
 *   - per-epoch log buffers with escaped LSN assignment (vs a shared
 *     log tail and a global LSN counter),
 *   - escaped lock-table operations (vs speculative lock updates),
 *   - no global LRU maintenance on the buffer-pool hot path.
 */
struct DbConfig
{
    bool tuned = true;
    bool traceLocks = true;    ///< model row-lock table accesses
    bool traceLog = true;      ///< model WAL appends
    unsigned maxPages = 96 * 1024; ///< buffer pool frames (384MB)
    /** Scales the synthetic instruction costs (calibration knob). */
    double costScale = 1.0;
};

/** Latch-identifier name space: pages plus named global latches,
 *  all below 2^32 (a TraceIndex packs a latch id into 32 bits). */
inline constexpr std::uint64_t kLatchPageBase = 0;
inline constexpr std::uint64_t kLatchNamedBase = std::uint64_t{1} << 31;

inline std::uint64_t
pageLatch(PageId pid)
{
    return kLatchPageBase + pid;
}

inline std::uint64_t
namedLatch(unsigned n)
{
    return kLatchNamedBase + n;
}

/** Named global latches. */
enum NamedLatch : unsigned {
    kLatchBufPool = 0,
    kLatchLog = 1,
    kLatchLockTable = 2,
    kLatchPageAlloc = 3,
};

} // namespace db
} // namespace tlsim

#endif // DB_DBTYPES_H
