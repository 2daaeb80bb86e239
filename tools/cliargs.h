/**
 * @file
 * The `--key[=value]` flag parser of every front end: tlsim, tlsmc and
 * the bench/ mains (bench::parseArgs). `--key` is a switch, read with
 * flag(); `--key=value` carries a value, read with str(), oneOf() or
 * num(). `-h` reads as `--help`.
 *
 * A usage error prints one line naming the flag, then the program's
 * usage, and exits 2: an argument not spelled --flag, a flag the
 * command does not read, a switch given a value or a valued flag none,
 * a malformed or out-of-range number, or a value outside the flag's
 * set. A typo such as `--subthread=4` must not silently run the
 * default configuration.
 */

#ifndef TOOLS_CLIARGS_H
#define TOOLS_CLIARGS_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "base/config.h"
#include "sim/experiment.h"
#include "tpcc/tpcc.h"

namespace tlsim {

class CliArgs
{
  public:
    /** `prog` opens every usage-error line; `usage` follows it. */
    CliArgs(std::string prog, std::string usage)
        : prog_(std::move(prog)), usage_(std::move(usage))
    {
    }

    const std::string &usage() const { return usage_; }

    /** Parse argv[first..]. */
    void
    parse(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "-h") {
                kv_["help"] = std::nullopt;
                continue;
            }
            if (arg.rfind("--", 0) != 0 || arg.size() == 2)
                usageError("unexpected argument '" + arg + "'");
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                kv_[arg.substr(2)] = std::nullopt;
            else
                kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
    }

    /** Print `why` and the usage to stderr; exit 2. */
    [[noreturn]] void
    usageError(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), why.c_str(),
                     usage_.c_str());
        std::exit(2);
    }

    /** A usage error on any parsed flag not listed in `known`. */
    void
    allowOnly(std::initializer_list<const char *> known) const
    {
        for (const auto &[k, v] : kv_) {
            bool ok = false;
            for (const char *name : known)
                ok = ok || k == name;
            if (!ok)
                usageError("unknown flag '--" + k + "'");
        }
    }

    bool has(const std::string &k) const { return kv_.count(k) > 0; }

    /** Switch `k` was given; a usage error if it was given a value. */
    bool
    flag(const std::string &k) const
    {
        auto it = kv_.find(k);
        if (it == kv_.end())
            return false;
        if (it->second)
            usageError("--" + k + " takes no value");
        return true;
    }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv_.find(k);
        if (it == kv_.end())
            return dflt;
        if (!it->second)
            usageError("--" + k + " expects a value (--" + k + "=...)");
        return *it->second;
    }

    /** str(k, dflt); a usage error unless it is one of `choices`. */
    std::string
    oneOf(const std::string &k, const std::string &dflt,
          std::initializer_list<const char *> choices) const
    {
        const std::string v = str(k, dflt);
        std::string list;
        for (const char *c : choices) {
            if (v == c)
                return v;
            list += list.empty() ? c : std::string("|") + c;
        }
        usageError("bad value for --" + k + ": '" + v + "' (" + list +
                   ")");
    }

    /**
     * The non-negative integer `k`, at most `max`. `base` 10 reads
     * decimal digits only; base 0 also takes the C prefixes 0x (hex)
     * and 0 (octal).
     */
    std::uint64_t
    num(const std::string &k, std::uint64_t dflt,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
        int base = 10) const
    {
        if (!has(k))
            return dflt;
        const std::string v = str(k);
        std::optional<std::uint64_t> n = toNum(v, base);
        if (!n)
            usageError("--" + k + " expects a non-negative integer, "
                       "got '" + v + "'");
        if (*n > max)
            usageError("--" + k + "=" + v + " is out of range (max " +
                       std::to_string(max) + ")");
        return *n;
    }

    /** num() for an `unsigned` setting. */
    unsigned
    unum(const std::string &k, unsigned dflt) const
    {
        return static_cast<unsigned>(
            num(k, dflt, std::numeric_limits<unsigned>::max()));
    }

    /** `v` as a whole non-negative integer (see num() for `base`). */
    static std::optional<std::uint64_t>
    toNum(std::string_view v, int base = 10)
    {
        if (base == 0) {
            base = 10;
            if (v.size() > 2 && v[0] == '0' &&
                (v[1] == 'x' || v[1] == 'X')) {
                base = 16;
                v.remove_prefix(2);
            } else if (v.size() > 1 && v[0] == '0') {
                base = 8;
                v.remove_prefix(1);
            }
        }
        std::uint64_t out = 0;
        auto [end, ec] =
            std::from_chars(v.data(), v.data() + v.size(), out, base);
        if (v.empty() || ec != std::errc() || end != v.data() + v.size())
            return std::nullopt;
        return out;
    }

    /** --benchmark as a TPC-C benchmark. */
    tpcc::TxnType
    benchmark() const
    {
        const std::string name = str("benchmark");
        if (std::optional<tpcc::TxnType> t = tpcc::txnTypeByName(name))
            return *t;
        usageError("unknown benchmark '" + name + "'");
    }

    /** --audit as an auditor level (default off). */
    AuditLevel
    audit() const
    {
        return parseAuditLevel(
            oneOf("audit", "off", {"off", "commit", "full"}));
    }

    /** The paper preset for `type`, sized by --quick and --txns: the
     *  preset the bench/ mains use. */
    sim::ExperimentConfig
    paperConfig(tpcc::TxnType type) const
    {
        return sim::ExperimentConfig::paper(type, flag("quick"),
                                            unum("txns", 0));
    }

  private:
    std::string prog_;
    std::string usage_;
    /** Flag name to value; nullopt for a switch spelled without `=`. */
    std::map<std::string, std::optional<std::string>> kv_;
};

} // namespace tlsim

#endif // TOOLS_CLIARGS_H
