#include "base/stats.h"

namespace tlsim {
namespace stats {

Stat::Stat(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (group)
        group->registerStat(this);
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value_ << " # " << desc() << "\n";
}

Vector::Vector(StatGroup *group, std::string name, std::string desc,
               std::vector<std::string> bucket_names)
    : Stat(group, std::move(name), std::move(desc)),
      bucketNames_(std::move(bucket_names)),
      values_(bucketNames_.size(), 0)
{
}

double
Vector::total() const
{
    double t = 0;
    for (double v : values_)
        t += v;
    return t;
}

void
Vector::dump(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < values_.size(); ++i) {
        os << prefix << name() << "." << bucketNames_[i] << " "
           << values_[i] << " # " << desc() << "\n";
    }
}

void
Vector::reset()
{
    for (double &v : values_)
        v = 0;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = name_ + ".";
    for (const Stat *s : stats_)
        s->dump(os, prefix);
}

void
StatGroup::resetAll()
{
    for (Stat *s : stats_)
        s->reset();
}

GlobalCounters &
GlobalCounters::instance()
{
    static GlobalCounters counters;
    return counters;
}

void
GlobalCounters::add(const std::string &name, std::uint64_t delta)
{
    MutexLock lk(mtx_);
    counters_[name] += delta;
}

std::uint64_t
GlobalCounters::value(const std::string &name) const
{
    MutexLock lk(mtx_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
GlobalCounters::snapshot() const
{
    MutexLock lk(mtx_);
    return {counters_.begin(), counters_.end()};
}

} // namespace stats
} // namespace tlsim
