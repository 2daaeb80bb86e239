/**
 * @file
 * A paper bench main (bench/bench_figure5_overall.cpp or
 * bench/bench_figure6_sweep.cpp, named by PERFBENCH_BENCH_SOURCE)
 * compiled unchanged, except that its TPC-C input and load seeds come
 * from the command line. The benchmark times this program, so it
 * measures the same capture, scoring and replay orchestration that a
 * user of the bench binaries runs.
 *
 *   perfbench_figure5 --input-seed=N --load-seed=M [bench flags...]
 *
 * Both seed flags are required and are removed before the bench's own
 * strict argument parser sees the rest. The bench mains build every
 * experiment configuration through bench::configFor; this translation
 * unit routes that call through seededConfigFor. If the bench main
 * stops calling it, the seeds would be silently ignored, so the
 * program then exits 3.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/benchutil.h"

namespace tlsim {
namespace bench {

std::uint64_t perfbenchInputSeed = 0;
std::uint64_t perfbenchLoadSeed = 0;
unsigned perfbenchSeeded = 0;

inline sim::ExperimentConfig
seededConfigFor(tpcc::TxnType type, const BenchArgs &args)
{
    sim::ExperimentConfig cfg = configFor(type, args);
    cfg.inputSeed = perfbenchInputSeed;
    cfg.loadSeed = perfbenchLoadSeed;
    ++perfbenchSeeded;
    return cfg;
}

} // namespace bench
} // namespace tlsim

#define configFor seededConfigFor
#define main benchMain
#include PERFBENCH_BENCH_SOURCE
#undef main
#undef configFor

namespace {

bool
seedFlag(const char *arg, const char *prefix, std::uint64_t *out)
{
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return false;
    try {
        std::size_t pos = 0;
        const std::string v = arg + n;
        *out = std::stoull(v, &pos);
        if (pos != v.size() || v.empty())
            throw std::invalid_argument(v);
    } catch (const std::exception &) {
        std::fprintf(stderr, "bad value for %s\n", prefix);
        std::exit(2);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> rest = {argv[0]};
    bool input = false, load = false;
    for (int i = 1; i < argc; ++i) {
        if (seedFlag(argv[i], "--input-seed=",
                     &tlsim::bench::perfbenchInputSeed))
            input = true;
        else if (seedFlag(argv[i], "--load-seed=",
                          &tlsim::bench::perfbenchLoadSeed))
            load = true;
        else
            rest.push_back(argv[i]);
    }
    if (!input || !load) {
        std::fprintf(stderr, "usage: %s --input-seed=N --load-seed=M "
                             "[bench flags...]\n",
                     argv[0]);
        return 2;
    }
    rest.push_back(nullptr);
    const int rc =
        benchMain(static_cast<int>(rest.size()) - 1, rest.data());
    if (tlsim::bench::perfbenchSeeded == 0) {
        std::fprintf(stderr, "%s: the bench main built no configuration "
                             "through bench::configFor, so the seeds "
                             "were not applied\n",
                     argv[0]);
        return 3;
    }
    return rc;
}
