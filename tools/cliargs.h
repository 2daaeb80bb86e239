/**
 * @file
 * `--key[=value]` flag parsing shared by the tlsim and tlscheck
 * drivers. A flag without `=` reads as "1". Every flag a subcommand
 * does not know, and every numeric flag whose value is not a
 * non-negative integer, is a fatal() error: a typo such as
 * `--subthread=4` must not silently run the default configuration.
 * Both drivers read --benchmark, --quick and --txns the same way: the
 * paper preset the bench/ mains use (sim::ExperimentConfig::paper).
 */

#ifndef TOOLS_CLIARGS_H
#define TOOLS_CLIARGS_H

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>

#include "base/log.h"
#include "sim/experiment.h"
#include "tpcc/tpcc.h"

namespace tlsim {

struct CliArgs
{
    std::map<std::string, std::string> kv;

    /** Parse argv[first..]; fatal() on an argument not spelled --flag. */
    void
    parse(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                fatal("unexpected argument '%s'", arg.c_str());
            const auto eq = arg.find('=');
            // std::string("1"), not "1": assigning the literal trips a
            // GCC 12 -Wrestrict false positive once this is inlined.
            if (eq == std::string::npos)
                kv[arg.substr(2)] = std::string("1");
            else
                kv[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
    }

    /** fatal() on any parsed flag not listed in `known`. */
    void
    allowOnly(const char *cmd,
              std::initializer_list<const char *> known) const
    {
        for (const auto &[k, v] : kv) {
            bool ok = false;
            for (const char *name : known)
                ok = ok || k == name;
            if (!ok)
                fatal("%s: unknown flag '--%s'", cmd, k.c_str());
        }
    }

    bool has(const std::string &k) const { return kv.count(k) > 0; }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    std::uint64_t
    num(const std::string &k, std::uint64_t dflt) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            return dflt;
        const std::string &v = it->second;
        std::uint64_t out = 0;
        auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(),
                                         out);
        if (v.empty() || ec != std::errc() || end != v.data() + v.size())
            fatal("--%s expects a non-negative integer, got '%s'",
                  k.c_str(), v.c_str());
        return out;
    }

    /** --benchmark as a TPC-C benchmark; fatal() on an unknown name. */
    tpcc::TxnType
    benchmark() const
    {
        const std::string name = str("benchmark");
        if (std::optional<tpcc::TxnType> t = tpcc::txnTypeByName(name))
            return *t;
        fatal("unknown benchmark '%s'", name.c_str());
    }

    /** The paper preset for `type`, sized by --quick and --txns. */
    sim::ExperimentConfig
    paperConfig(tpcc::TxnType type) const
    {
        return sim::ExperimentConfig::paper(
            type, has("quick"), static_cast<unsigned>(num("txns", 0)));
    }
};

} // namespace tlsim

#endif // TOOLS_CLIARGS_H
