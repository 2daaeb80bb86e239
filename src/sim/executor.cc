#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

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
}

void
SimExecutor::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    stats::GlobalCounters::instance().add("executor.batches");
    stats::GlobalCounters::instance().add("executor.tasks", n);

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // Written only by the thread that wins `failed`, read only after
    // every helper is joined.
    std::exception_ptr error;
    auto claimLoop = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                next.store(n); // no new task starts
                if (!failed.exchange(true))
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    const std::size_t want = std::min<std::size_t>(jobs_, n) - 1;
    for (std::size_t t = 0; t < want; ++t) {
        try {
            helpers.emplace_back(claimLoop);
        } catch (const std::system_error &) {
            break; // the threads already started, and the caller, finish
        }
    }
    claimLoop();
    for (auto &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace sim
} // namespace tlsim
