#include "db/lockmgr.h"

#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

LockManager::LockManager(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), table_(8192),
      tableRegion_(tracer, table_.data(), table_.size() * sizeof(Bucket))
{
}

std::uint32_t
LockManager::bucketOf(TableId table, BytesView key) const
{
    // FNV-1a over (table, key).
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint8_t b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    for (unsigned i = 0; i < 4; ++i)
        mix(static_cast<std::uint8_t>(table >> (8 * i)));
    for (char c : key)
        mix(static_cast<std::uint8_t>(c));
    return static_cast<std::uint32_t>(h & (table_.size() - 1));
}

std::uint32_t
LockManager::lock(TableId table, BytesView key, LockMode mode)
{
    ++locksTaken_;
    if (!cfg_.traceLocks)
        return bucketOf(table, key);
    constexpr Site s_lock{SiteId::LockmgrLockGet};
    (void)mode;

    std::uint32_t h = bucketOf(table, key);
    Bucket &b = table_[h];
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_lock.pc);
        tr_.latchAcquire(s_lock.pc, namedLatch(kLatchLockTable) + 16 +
                                        (h & 255));
        tr_.load(s_lock.pc, &b, sizeof(b));
        b.holders += 1;
        tr_.store(s_lock.pc, &b, sizeof(b));
        tr_.compute(s_lock.pc, cost::kLockOp);
        tr_.latchRelease(s_lock.pc, namedLatch(kLatchLockTable) + 16 +
                                        (h & 255));
    } else {
        tr_.load(s_lock.pc, &b, sizeof(b));
        b.holders += 1;
        tr_.store(s_lock.pc, &b, sizeof(b));
        tr_.compute(s_lock.pc, cost::kLockOp);
    }
    return h;
}

void
LockManager::unlock(std::uint32_t handle)
{
    if (!cfg_.traceLocks)
        return;
    constexpr Site s_unlock{SiteId::LockmgrLockPut};
    Bucket &b = table_[handle];
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_unlock.pc);
        tr_.latchAcquire(s_unlock.pc, namedLatch(kLatchLockTable) + 16 +
                                          (handle & 255));
        tr_.load(s_unlock.pc, &b, sizeof(b));
        if (b.holders > 0)
            b.holders -= 1;
        tr_.store(s_unlock.pc, &b, sizeof(b));
        tr_.compute(s_unlock.pc, cost::kLockOp / 2);
        tr_.latchRelease(s_unlock.pc, namedLatch(kLatchLockTable) + 16 +
                                          (handle & 255));
    } else {
        tr_.load(s_unlock.pc, &b, sizeof(b));
        if (b.holders > 0)
            b.holders -= 1;
        tr_.store(s_unlock.pc, &b, sizeof(b));
        tr_.compute(s_unlock.pc, cost::kLockOp / 2);
    }
}

} // namespace db
} // namespace tlsim
