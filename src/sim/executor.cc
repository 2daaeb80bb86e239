#include "sim/executor.h"

#include "base/log.h"
#include "base/stats.h"

namespace tlsim {
namespace sim {

unsigned
SimExecutor::hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SimExecutor::SimExecutor(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
    if (jobs_ == 1)
        return; // inline mode: no threads, no queues
    queues_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        queues_.push_back(std::make_unique<TaskQueue>());
    // Worker 0 is the submitting thread; spawn the other jobs_ - 1.
    threads_.reserve(jobs_ - 1);
    for (unsigned i = 1; i < jobs_; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

SimExecutor::~SimExecutor()
{
    if (jobs_ == 1)
        return;
    {
        MutexLock lk(mtx_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
SimExecutor::nextTask(unsigned self, std::size_t *out)
{
    if (queues_[self]->popBack(out)) // own work LIFO: cache-warm
        return true;
    // Steal oldest work from the fullest other queue. The size scan is
    // advisory; popFront() re-checks emptiness under the queue's own
    // lock, so losing a race with the owner just rescans.
    while (true) {
        unsigned victim = jobs_;
        std::size_t most = 0;
        for (unsigned v = 0; v < jobs_; ++v) {
            if (v == self)
                continue;
            std::size_t sz = queues_[v]->size();
            if (sz > most) {
                most = sz;
                victim = v;
            }
        }
        if (victim == jobs_)
            return false;
        if (queues_[victim]->popFront(out)) {
            stats::GlobalCounters::instance().add("executor.steals");
            return true;
        }
        // Raced with the owner; rescan.
    }
}

void
SimExecutor::runTasks(unsigned self)
{
    const std::function<void(std::size_t)> *fn;
    {
        MutexLock lk(mtx_);
        fn = batchFn_;
    }
    if (!fn)
        return;
    std::size_t idx;
    while (nextTask(self, &idx)) {
        try {
            (*fn)(idx);
        } catch (...) {
            MutexLock lk(mtx_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        MutexLock lk(mtx_);
        if (--pending_ == 0)
            done_.notify_all();
    }
}

void
SimExecutor::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    while (true) {
        {
            UniqueLock lk(mtx_);
            while (!shutdown_ && batchId_ == seen)
                wake_.wait(lk);
            if (shutdown_)
                return;
            seen = batchId_;
            ++active_;
        }
        runTasks(self);
        {
            MutexLock lk(mtx_);
            if (--active_ == 0)
                done_.notify_all();
        }
    }
}

void
SimExecutor::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs_ == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    {
        // Claim the batch slot atomically with the reentrancy check:
        // the old `if (batchFn_)` guard only tripped once the racing
        // submitter had already published its function, so two threads
        // could both pass it and interleave their seeding. batchOpen_
        // is set under the same critical section that inspects it.
        UniqueLock lk(mtx_);
        if (batchOpen_)
            panic("SimExecutor::parallelFor is not reentrant");
        batchOpen_ = true;
        // A worker still draining the previous batch holds a pointer
        // to that batch's function object; never seed new tasks it
        // could pick up until every worker has left runTasks().
        while (active_ != 0)
            done_.wait(lk);
    }

    // Seed round-robin so early indices spread across workers.
    for (std::size_t i = 0; i < n; ++i)
        queues_[i % jobs_]->push(i);
    {
        MutexLock lk(mtx_);
        batchFn_ = &fn;
        pending_ = n;
        firstError_ = nullptr;
        ++batchId_;
    }
    wake_.notify_all();
    stats::GlobalCounters::instance().add("executor.batches");
    stats::GlobalCounters::instance().add("executor.tasks", n);

    runTasks(0); // the caller works too

    std::exception_ptr err;
    {
        UniqueLock lk(mtx_);
        while (pending_ != 0)
            done_.wait(lk);
        batchFn_ = nullptr;
        err = firstError_;
        firstError_ = nullptr;
        batchOpen_ = false;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace sim
} // namespace tlsim
