/**
 * @file
 * SimExecutor: fans independent, deterministic simulation points
 * (benchmark x bar x TlsConfig) across host hardware threads.
 *
 * Every task writes its result into a caller-indexed slot, so the
 * output of a parallel run is bit-identical to the serial loop it
 * replaces however the threads interleave: the TLS machine is
 * self-contained and the captured traces are shared read-only.
 *
 * Each parallelFor is one claim loop. The caller and at most
 * min(jobs, n) - 1 threads started for that batch alone take indices
 * in ascending order from one atomic counter until none is left; the
 * caller then joins the threads. A task is a whole simulation of
 * milliseconds, so a thread start per batch costs nothing measurable,
 * and no state outlives a batch: batches submitted concurrently, or
 * from inside a task, share nothing. With jobs == 1 or n == 1 no
 * thread starts and the same loop runs fn(0) .. fn(n-1) in order on
 * the caller, which is the serial reference path.
 */

#ifndef SIM_EXECUTOR_H
#define SIM_EXECUTOR_H

#include <cstddef>
#include <functional>

namespace tlsim {
namespace sim {

class SimExecutor
{
  public:
    /** jobs == 0 selects the host's hardware concurrency. */
    explicit SimExecutor(unsigned jobs = 0);

    /** Most threads working on one batch (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1) to completion and return. Once a task
     * throws, no further index is claimed; the tasks already running
     * finish, and then the first exception is rethrown on the caller.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** Picked-up value of --jobs=0 on this host. */
    static unsigned hardwareJobs();

  private:
    unsigned jobs_;
};

} // namespace sim
} // namespace tlsim

#endif // SIM_EXECUTOR_H
