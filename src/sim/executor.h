/**
 * @file
 * SimExecutor: a work-stealing thread pool that fans independent,
 * deterministic simulation points (benchmark x bar x TlsConfig) across
 * host hardware threads.
 *
 * Every task writes its result into a caller-indexed slot, so the
 * output of a parallel run is bit-identical to the serial loop it
 * replaces regardless of how the scheduler interleaves tasks: the TLS
 * machine is self-contained and the captured traces are shared
 * read-only. With jobs == 1 no threads are created at all and tasks
 * run inline on the caller, which keeps the serial reference path
 * trivially deterministic and overhead-free.
 *
 * Scheduling: each worker owns a deque seeded round-robin at submit
 * time; it pops from the back of its own deque (LIFO, cache-warm) and
 * steals from the front of the busiest other deque (FIFO, oldest
 * first) when empty. The submitting thread participates as a worker,
 * so `jobs` is the total number of threads doing simulation work.
 *
 * Lock discipline (checked at compile time under TLSIM_THREAD_SAFETY):
 * every per-worker deque is a self-locking TaskQueue capability — all
 * push/pop/steal paths acquire the queue's own mutex inside the
 * method, so a steal can never touch a victim's deque unlocked — and
 * every batch-lifecycle field is GUARDED_BY the single batch mutex.
 */

#ifndef SIM_EXECUTOR_H
#define SIM_EXECUTOR_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "base/threadannot.h"

namespace tlsim {
namespace sim {

class SimExecutor
{
  public:
    /** jobs == 0 selects the host's hardware concurrency. */
    explicit SimExecutor(unsigned jobs = 0);
    ~SimExecutor();

    SimExecutor(const SimExecutor &) = delete;
    SimExecutor &operator=(const SimExecutor &) = delete;

    /** Total threads working on a batch (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1) to completion, in parallel across the pool.
     * Blocks until every task finished. The first exception thrown by
     * any task is rethrown on the caller once the batch has drained.
     * Not reentrant and single-submitter: a task calling parallelFor
     * on its own executor, or a second thread submitting while a batch
     * is open, panics (the claim check is atomic with the claim, so a
     * racing submitter can never corrupt an in-flight batch).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** Convenience: results vector filled by index. */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<R> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** Picked-up value of --jobs=0 on this host. */
    static unsigned hardwareJobs();

  private:
    /**
     * One worker's task deque as a capability: the deque is only
     * reachable through methods that take the internal mutex, so the
     * owner's LIFO pop and a thief's FIFO steal are provably locked.
     */
    class TaskQueue
    {
      public:
        /** Append a task (submit-time round-robin seeding). */
        void
        push(std::size_t idx) TLSIM_EXCLUDES(mtx_)
        {
            MutexLock lk(mtx_);
            tasks_.push_back(idx);
        }

        /** Owner path: newest task (cache-warm). */
        bool
        popBack(std::size_t *out) TLSIM_EXCLUDES(mtx_)
        {
            MutexLock lk(mtx_);
            if (tasks_.empty())
                return false;
            *out = tasks_.back();
            tasks_.pop_back();
            return true;
        }

        /** Thief path: oldest task (largest remaining chain). */
        bool
        popFront(std::size_t *out) TLSIM_EXCLUDES(mtx_)
        {
            MutexLock lk(mtx_);
            if (tasks_.empty())
                return false;
            *out = tasks_.front();
            tasks_.pop_front();
            return true;
        }

        /** Size snapshot for victim selection; stale by the time the
         *  thief acts, so popFront() re-checks under the lock. */
        std::size_t
        size() const TLSIM_EXCLUDES(mtx_)
        {
            MutexLock lk(mtx_);
            return tasks_.size();
        }

      private:
        mutable Mutex mtx_;
        std::deque<std::size_t> tasks_ TLSIM_GUARDED_BY(mtx_);
    };

    void workerLoop(unsigned self);
    /** Pop own work or steal; false when the batch has no task left. */
    bool nextTask(unsigned self, std::size_t *out);
    void runTasks(unsigned self);

    unsigned jobs_;
    std::vector<std::thread> threads_;
    std::vector<std::unique_ptr<TaskQueue>> queues_;

    Mutex mtx_;
    CondVar wake_; ///< workers: a batch is ready
    CondVar done_; ///< caller: batch fully drained

    /** Claimed by parallelFor before anything else, under mtx_, so a
     *  second submitter panics instead of racing the open batch. */
    bool batchOpen_ TLSIM_GUARDED_BY(mtx_) = false;
    const std::function<void(std::size_t)> *batchFn_
        TLSIM_GUARDED_BY(mtx_) = nullptr;
    /** Tasks not yet finished in this batch. */
    std::size_t pending_ TLSIM_GUARDED_BY(mtx_) = 0;
    /** Workers currently inside runTasks(). */
    unsigned active_ TLSIM_GUARDED_BY(mtx_) = 0;
    std::uint64_t batchId_ TLSIM_GUARDED_BY(mtx_) = 0;
    std::exception_ptr firstError_ TLSIM_GUARDED_BY(mtx_);
    bool shutdown_ TLSIM_GUARDED_BY(mtx_) = false;
};

} // namespace sim
} // namespace tlsim

#endif // SIM_EXECUTOR_H
