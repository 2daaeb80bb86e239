/**
 * @file
 * A small statistics package in the spirit of gem5's Stats:
 * named scalar counters and vectors that register with a StatGroup and
 * can be dumped in one pass at the end of simulation.
 */

#ifndef BASE_STATS_H
#define BASE_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "base/sync.h"
#include "base/threadannot.h"

namespace tlsim {
namespace stats {

class StatGroup;

/** Base class for all statistics: a name, a description, and a dump. */
class Stat
{
  public:
    Stat(StatGroup *group, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print one or more "prefixname value # desc" lines. */
    virtual void dump(std::ostream &os,
                      const std::string &prefix = "") const = 0;
    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A simple accumulating scalar (count or sum). */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { value_ += 1; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { value_ = 0; }

  private:
    double value_ = 0;
};

/** A fixed-size vector of named scalar buckets. */
class Vector : public Stat
{
  public:
    Vector(StatGroup *group, std::string name, std::string desc,
           std::vector<std::string> bucket_names);

    double &operator[](std::size_t i) { return values_.at(i); }
    double at(std::size_t i) const { return values_.at(i); }
    std::size_t size() const { return values_.size(); }
    double total() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

  private:
    std::vector<std::string> bucketNames_;
    std::vector<double> values_;
};

/**
 * A named collection of statistics. Groups nest by name prefix only —
 * members register themselves on construction.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    void registerStat(Stat *s) { stats_.push_back(s); }
    const std::vector<Stat *> &statList() const { return stats_; }

    /** Dump every registered stat, prefixed with the group name. */
    void dump(std::ostream &os) const;
    /** Reset every registered stat. */
    void resetAll();

  private:
    std::string name_;
    std::vector<Stat *> stats_;
};

/**
 * Process-wide, thread-safe named counters for host-side plumbing
 * observability (executor batches/tasks, trace-cache hits, ...).
 *
 * Unlike Stat/StatGroup — which are single-threaded by design, owned
 * by one simulated machine and dumped with its results — these are
 * shared across every worker thread and guarded accordingly; the
 * annotations make the discipline checkable under TLSIM_THREAD_SAFETY.
 * They never feed simulation output, so bit-identical replay is
 * unaffected by how the host schedules the increments.
 */
class GlobalCounters
{
  public:
    static GlobalCounters &instance();

    GlobalCounters(const GlobalCounters &) = delete;
    GlobalCounters &operator=(const GlobalCounters &) = delete;

    /** Add `delta` to the named counter (created at zero). */
    void add(const std::string &name, std::uint64_t delta = 1)
        TLSIM_EXCLUDES(mtx_);

    /** Current value (zero if never incremented). */
    std::uint64_t value(const std::string &name) const
        TLSIM_EXCLUDES(mtx_);

    /** All counters, sorted by name (a consistent point-in-time view). */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const
        TLSIM_EXCLUDES(mtx_);

  private:
    GlobalCounters() = default;

    mutable Mutex mtx_;
    std::map<std::string, std::uint64_t> counters_
        TLSIM_GUARDED_BY(mtx_);
};

} // namespace stats
} // namespace tlsim

#endif // BASE_STATS_H
