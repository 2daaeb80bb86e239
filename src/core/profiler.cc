#include "core/profiler.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "base/detorder.h"
#include "core/site.h"

namespace tlsim {

void
DependenceProfiler::recordViolation(Pc load_pc, Pc store_pc,
                                    std::uint64_t failed_cycles)
{
    totalFailed_ += failed_cycles;
    ++totalViolations_;

    PairCost *hit = nullptr;
    for (PairCost &p : pairs_) {
        if (p.loadPc == load_pc && p.storePc == store_pc) {
            hit = &p;
            break;
        }
    }
    if (!hit) {
        if (pairs_.size() >= maxEntries_) {
            // Reclaim the entry with the least total cycles (paper:
            // "when the list overflows, we want to reclaim the entry
            // with the least total cycles").
            PairCost *least = &pairs_.front();
            for (PairCost &p : pairs_) {
                if (p.failedCycles < least->failedCycles)
                    least = &p;
            }
            *least = PairCost{load_pc, store_pc, 0, 0};
            hit = least;
        } else {
            pairs_.push_back(PairCost{load_pc, store_pc, 0, 0});
            hit = &pairs_.back();
        }
    }
    hit->failedCycles += failed_cycles;
    ++hit->violations;
}

std::vector<DependenceProfiler::PairCost>
DependenceProfiler::report() const
{
    std::vector<PairCost> out(pairs_.begin(), pairs_.end());
    // Costliest first; equal-cost pairs break by site so the table is
    // identical run to run (a raw descending comparator leaves ties
    // in unspecified order).
    det::canonicalSort(out, [](const PairCost &p) {
        return std::make_tuple(~p.failedCycles, p.loadPc, p.storePc);
    });
    return out;
}

std::string
DependenceProfiler::reportText(unsigned n) const
{
    std::ostringstream os;
    os << "rank  failed-cycles  violations  load-site <- store-site\n";
    unsigned rank = 0;
    for (const PairCost &p : report()) {
        if (rank++ >= n)
            break;
        // Load PC 0 means the exposed-load table had lost the entry
        // (direct-mapped conflict) by the time the violation arrived.
        std::string load = p.loadPc
                               ? siteName(p.loadPc)
                               : std::string("<exposed-load-table miss>");
        os << rank << "  " << p.failedCycles << "  " << p.violations
           << "  " << load << " <- " << siteName(p.storePc) << "\n";
    }
    return os.str();
}

void
DependenceProfiler::reset()
{
    pairs_.clear();
    totalFailed_ = 0;
    totalViolations_ = 0;
}

} // namespace tlsim
