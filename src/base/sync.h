/**
 * @file
 * Annotated synchronization primitives.
 *
 * Thin wrappers over std::mutex carrying the thread-safety capability
 * attributes from base/threadannot.h. The standard-library types
 * cannot be annotated retroactively, so code that wants
 * `-Wthread-safety` coverage uses these instead; they compile to the
 * identical std calls (everything is inline and the attributes vanish
 * on GCC).
 */

#ifndef BASE_SYNC_H
#define BASE_SYNC_H

#include <mutex>

#include "base/threadannot.h"

namespace tlsim {

/** An annotated std::mutex: the unit of GUARDED_BY/REQUIRES. */
class TLSIM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() TLSIM_ACQUIRE() { m_.lock(); }
    void unlock() TLSIM_RELEASE() { m_.unlock(); }
    bool try_lock() TLSIM_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/** RAII lock for the common locked-scope (std::lock_guard shape). */
class TLSIM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) TLSIM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() TLSIM_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

} // namespace tlsim

#endif // BASE_SYNC_H
