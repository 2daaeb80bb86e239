/**
 * @file
 * Row lock manager. Transactions run one at a time (the paper measures
 * latency), so locks never conflict between transactions — but the
 * lock *table* is shared memory: in the untuned build every lock_get
 * speculatively updates a hash bucket, creating cross-epoch
 * dependences whenever two epochs hash nearby. The tuned build moves
 * lock-table maintenance into escaped regions guarded by per-bucket
 * latches (the VLDB'05 "lazy locks" treatment).
 */

#ifndef DB_LOCKMGR_H
#define DB_LOCKMGR_H

#include <cstdint>
#include <vector>

#include "core/tracer.h"
#include "db/dbtypes.h"

namespace tlsim {
namespace db {

/** Lock modes (tracked for API fidelity; no inter-txn conflicts). */
enum class LockMode { Shared, Exclusive };

/** The traced row-lock table. */
class LockManager
{
  public:
    LockManager(const DbConfig &cfg, Tracer &tracer);

    /** Acquire a row lock; returns a handle for release. */
    std::uint32_t lock(TableId table, BytesView key, LockMode mode);

    /** Release one lock handle (bucket index). */
    void unlock(std::uint32_t handle);

    std::uint64_t locksTaken() const { return locksTaken_; }

  private:
    struct Bucket
    {
        std::uint32_t holders = 0;
        std::uint32_t stamp = 0;
    };

    std::uint32_t bucketOf(TableId table, BytesView key) const;

    const DbConfig &cfg_;
    Tracer &tr_;
    std::vector<Bucket> table_;
    TracedRegion tableRegion_;
    std::uint64_t locksTaken_ = 0;
};

} // namespace db
} // namespace tlsim

#endif // DB_LOCKMGR_H
