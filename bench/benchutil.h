/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries:
 *
 *  - argument parsing through tools/cliargs.h (--quick, --txns=N,
 *    --jobs=N, --json=FILE, --trace-cache=DIR, ...); unknown flags and
 *    bad values are usage errors, so CI typos fail loudly instead of
 *    silently running the default;
 *  - the per-benchmark experiment configuration;
 *  - a machine-readable result reporter emitting the "tlsim-bench-v1"
 *    JSON schema (validated by tools/check_bench_json.py).
 */

#ifndef BENCH_BENCHUTIL_H
#define BENCH_BENCHUTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/config.h"
#include "base/dethash.h"
#include "base/log.h"
#include "base/simd.h"
#include "base/stats.h"
#include "core/resulthash.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/tracecache.h"
#include "tools/cliargs.h"

namespace tlsim {
namespace bench {

/** Parsed command line for a reproduction bench. */
struct BenchArgs
{
    bool quick = false;     ///< reduced TPC-C scale (CI-friendly)
    unsigned txns = 0;      ///< 0 = per-benchmark default
    unsigned jobs = 1;      ///< simulation points in flight; 0 = auto
    std::string json;       ///< write machine-readable results here
    std::string traceCache; ///< reuse trace snapshots from this dir
    /** Escape hatch: ignore the conflict-oracle bits of the trace
     *  pre-analysis (results must be identical; replay is slower). */
    bool noTraceIndex = false;
    /** Protocol invariant auditor level (off|commit|full). */
    std::string audit = "off";
    /** Pin the SIMD dispatch to the portable scalar kernels (results
     *  must be identical; the golden label compares both legs). */
    bool forceScalar = false;
    /** Sweep pruning: "oracle" scores every grid point with the
     *  critical-path analyzer and simulates only the predicted
     *  frontier (bench_figure6_sweep). */
    std::string prune = "none";
    /** Sub-thread start-point policy: "fixed" spacing or predicted
     *  exposed-load "risk" records (TlsConfig::riskPlacement). */
    std::string placement = "fixed";
    /** Hash the canonical result stream after each stage and emit the
     *  digests in the `determinism` JSON block (base/dethash.h). */
    bool detProbe = false;
};

/** The bench usage text, for program `prog`. */
inline std::string
usage(const char *prog)
{
    return std::string("usage: ") + prog +
           " [--quick] [--txns=N] [--jobs=N] "
           "[--json=FILE] [--trace-cache=DIR] "
           "[--no-trace-index] [--audit=off|commit|full] "
           "[--force-scalar] [--prune=none|oracle] "
           "[--placement=fixed|risk] [--det-probe]\n"
           "  --quick            reduced TPC-C scale (CI)\n"
           "  --txns=N           transactions per capture\n"
           "  --jobs=N           parallel simulation points "
           "(0 = all cores, default 1)\n"
           "  --json=FILE        machine-readable results "
           "(tlsim-bench-v1 schema)\n"
           "  --trace-cache=DIR  reuse on-disk trace snapshots\n"
           "  --no-trace-index   disable the conflict-oracle "
           "fast path (identical results, slower replay)\n"
           "  --audit=LEVEL      protocol invariant auditor "
           "(off|commit|full; results must be identical)\n"
           "  --force-scalar     use the portable scalar kernels "
           "(identical results; golden-label comparison)\n"
           "  --prune=MODE       sweep pruning: 'oracle' scores "
           "grid points with the critical-path analyzer and "
           "simulates only the predicted frontier\n"
           "  --placement=POLICY sub-thread start points: 'fixed' "
           "spacing or predicted-'risk' records\n"
           "  --det-probe        hash the canonical result stream "
           "per stage into the 'determinism' JSON block\n";
}

/**
 * Parse the bench command line. --help prints the usage and exits 0;
 * any usage error (tools/cliargs.h) exits 2: a misspelled flag must
 * not silently fall back to default behaviour.
 */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    CliArgs cl(argv[0], usage(argv[0]));
    cl.parse(argc, argv, 1);
    if (cl.has("help")) {
        std::fputs(cl.usage().c_str(), stdout);
        std::exit(0);
    }
    cl.allowOnly({"quick", "txns", "jobs", "json", "trace-cache",
                  "no-trace-index", "audit", "force-scalar", "prune",
                  "placement", "det-probe"});
    BenchArgs args;
    args.quick = cl.flag("quick");
    args.txns = cl.unum("txns", 0);
    args.jobs = cl.unum("jobs", 1);
    args.json = cl.str("json");
    args.traceCache = cl.str("trace-cache");
    args.noTraceIndex = cl.flag("no-trace-index");
    args.audit = cl.oneOf("audit", "off", {"off", "commit", "full"});
    args.forceScalar = cl.flag("force-scalar");
    args.prune = cl.oneOf("prune", "none", {"none", "oracle"});
    args.placement = cl.oneOf("placement", "fixed", {"fixed", "risk"});
    args.detProbe = cl.flag("det-probe");
    return args;
}

/**
 * Capture (or reload from --trace-cache) the traces of each benchmark
 * under its configuration, in order, as one batch: a cold run loads
 * each distinct TPC-C database once, a warm one none; the trace
 * indexes are built across `ex`. `images`, when given, keeps the
 * loaded databases for captures after the batch.
 */
inline std::vector<sim::SharedTraces>
captureAll(const std::vector<tpcc::TxnType> &types,
           const std::vector<sim::ExperimentConfig> &cfgs,
           const BenchArgs &args, sim::SimExecutor &ex,
           tpcc::ImageLoader *images = nullptr)
{
    std::vector<sim::CaptureRequest> batch;
    for (std::size_t i = 0; i < types.size(); ++i) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(types[i]));
        batch.push_back({types[i], cfgs[i]});
    }
    return sim::captureTracesShared(batch, args.traceCache, images, &ex);
}

/**
 * Experiment configuration for one benchmark: the paper preset
 * (sim::ExperimentConfig::paper) sized by --quick/--txns, plus the
 * machine flags.
 */
inline sim::ExperimentConfig
configFor(tpcc::TxnType type, const BenchArgs &args)
{
    sim::ExperimentConfig cfg =
        sim::ExperimentConfig::paper(type, args.quick, args.txns);
    cfg.machine.tls.useConflictOracle = !args.noTraceIndex;
    cfg.machine.tls.auditLevel = parseAuditLevel(args.audit);
    cfg.machine.tls.riskPlacement = args.placement == "risk";
    return cfg;
}

// ---------------------------------------------------------------------
// Machine-readable results ("tlsim-bench-v1")
// ---------------------------------------------------------------------

/**
 * Collects named result entries plus wall-clock and simulated-cycle
 * totals and writes them as JSON:
 *
 *     {
 *       "schema": "tlsim-bench-v1",
 *       "bench": "<binary name>",
 *       "quick": true,
 *       "jobs": 2,
 *       "wall_seconds": 1.23,
 *       "simulated_cycles": 4.56e8,
 *       "capture": {"db_loads": 1, "captures": 14, "hits": 0,
 *                   "corrupt": 0},
 *       "results": [ {"name": "...", "<metric>": <number>, ...}, ... ]
 *     }
 *
 * The timer starts at construction; write() stops it.
 */
class BenchReport
{
  public:
    using Fields = std::vector<std::pair<std::string, double>>;

    BenchReport(std::string bench, const BenchArgs &args,
                unsigned resolved_jobs)
        : bench_(std::move(bench)), quick_(args.quick),
          jobs_(resolved_jobs), probe_(args.detProbe),
          start_(std::chrono::steady_clock::now())
    {
    }

    /** The --det-probe stage-digest collector (no-op when disabled). */
    det::Probe &probe() { return probe_; }

    /** The --det-probe "capture" stage: one digest per benchmark over
     *  both of its traces. */
    void
    probeCaptures(const std::vector<sim::SharedTraces> &traces)
    {
        if (!probe_.enabled())
            return;
        std::vector<std::uint64_t> caps;
        for (const sim::SharedTraces &t : traces) {
            det::Hash h;
            h.u64(det::hashWorkloadTrace(t->original));
            h.u64(det::hashWorkloadTrace(t->tls));
            caps.push_back(h.value());
        }
        probe_.stageItems("capture", caps);
    }

    /** Add one named result row; every field must be numeric. */
    void
    add(std::string name, Fields fields)
    {
        results_.emplace_back(std::move(name), std::move(fields));
    }

    /** Count cycles of simulated machine time toward the total. */
    void
    addSimulatedCycles(double cycles)
    {
        simulatedCycles_ += cycles;
    }

    /** Count trace records dispatched by the replay engine (the
     *  numerator of the reported records_per_second throughput). */
    void
    addReplayRecords(double records)
    {
        replayRecords_ += records;
    }

    /** Record the auditor level so write() emits the "audit" block. */
    void
    setAuditLevel(std::string level)
    {
        auditLevel_ = std::move(level);
    }

    /** Count invariant checks performed by the runtime auditor. */
    void
    addAuditChecks(double checks)
    {
        auditChecks_ += checks;
    }

    /**
     * Record the model-checker totals; write() then emits the
     * "modelcheck" block (validated by tools/check_bench_json.py).
     * states is the number of explored model states (transitions
     * executed across all schedules), reduction the naive/DPOR
     * schedule ratio on the reduction instances.
     */
    void
    setModelcheck(double states, double schedules, double reduction,
                  double violations)
    {
        mcStates_ = states;
        mcSchedules_ = schedules;
        mcReduction_ = reduction;
        mcViolations_ = violations;
        hasModelcheck_ = true;
    }

    /**
     * Record the critical-path oracle totals; write() then emits the
     * "critpath" block (validated by tools/check_bench_json.py).
     * `predicted` is the calibrated predicted makespan summed over
     * every scored grid point, `band_error` the largest relative
     * error observed on points that were both predicted and
     * simulated, and the point counts carry the pruning claim:
     * at most half the scored points may have been simulated.
     */
    void
    setCritpath(double predicted, double band_error, double total,
                double simulated)
    {
        cpPredicted_ = predicted;
        cpBandError_ = band_error;
        cpTotal_ = total;
        cpSimulated_ = simulated;
        hasCritpath_ = true;
    }

    double
    wallSeconds() const
    {
        // tlsdet:allow(D2): timing-only wall_seconds/records_per_second
        auto end = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(end - start_).count();
    }

    /** Write the report; returns false (with a message) on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write JSON to '%s'\n",
                         path.c_str());
            return false;
        }
        os << "{\n";
        os << "  \"schema\": \"tlsim-bench-v1\",\n";
        os << "  \"bench\": \"" << escape(bench_) << "\",\n";
        os << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n";
        os << "  \"jobs\": " << jobs_ << ",\n";
        double wall = wallSeconds();
        os << "  \"wall_seconds\": " << wall << ",\n";
        os << "  \"simulated_cycles\": " << simulatedCycles_ << ",\n";
        os << "  \"replay_records\": " << replayRecords_ << ",\n";
        os << "  \"records_per_second\": "
           << (wall > 0 ? replayRecords_ / wall : 0) << ",\n";
        if (auditLevel_ != "off") {
            // The auditor throws on the first violated invariant, so a
            // report that got as far as write() always has zero.
            os << "  \"audit\": {\"level\": \"" << escape(auditLevel_)
               << "\", \"invariants_checked\": " << auditChecks_
               << ", \"violations\": 0},\n";
        }
        if (hasModelcheck_) {
            os << "  \"modelcheck\": {\"states_explored\": "
               << mcStates_ << ", \"schedules\": " << mcSchedules_
               << ", \"dpor_reduction\": " << mcReduction_
               << ", \"violations\": " << mcViolations_ << "},\n";
        }
        if (hasCritpath_) {
            os << "  \"critpath\": {\"predicted_makespan\": "
               << cpPredicted_ << ", \"band_error\": " << cpBandError_
               << ", \"points_total\": " << cpTotal_
               << ", \"points_simulated\": " << cpSimulated_
               << "},\n";
        }
        // Replay-path instrumentation: the active SIMD kernel set and
        // the "replay.*" global counter group (epoch/record totals,
        // arena effectiveness). Always present in new reports.
        os << "  \"replay\": {\"simd\": \"" << escape(simd::activeName())
           << "\"";
        for (const auto &[name, val] :
             stats::GlobalCounters::instance().snapshot()) {
            if (name.rfind("replay.", 0) == 0)
                os << ", \"" << escape(name.substr(7)) << "\": " << val;
        }
        os << "},\n";
        // Capture work: TPC-C databases loaded, traces captured,
        // benchmarks whose traces the trace cache supplied, and those
        // whose cached files it rejected as damaged.
        const auto &gc = stats::GlobalCounters::instance();
        os << "  \"capture\": {\"db_loads\": "
           << gc.value("tpcc.db_loads")
           << ", \"captures\": " << gc.value("tpcc.captures")
           << ", \"hits\": " << gc.value("tracecache.hit")
           << ", \"corrupt\": " << gc.value("tracecache.corrupt")
           << "},\n";
        std::string rendered = renderResults();
        if (probe_.enabled()) {
            // The serialize-stage digest covers the exact bytes about
            // to be written for the results array — the final,
            // printf-formatted form of the canonical result stream.
            det::Hash ser;
            ser.str(rendered);
            os << "  \"determinism\": {\"jobs_invariant\": "
               << (probe_.jobsInvariant() ? "true" : "false")
               << ", \"stages\": {";
            for (const auto &[name, digest] : probe_.stages())
                os << "\"" << escape(name) << "\": \"" << hex64(digest)
                   << "\", ";
            os << "\"serialize\": \"" << hex64(ser.value())
               << "\"}},\n";
        }
        os << "  \"results\": [" << rendered << "\n  ]\n}\n";
        return static_cast<bool>(os);
    }

    /** write() if --json was given; true when skipped or successful. */
    bool
    writeIfRequested(const BenchArgs &args) const
    {
        return args.json.empty() || write(args.json);
    }

  private:
    /** Render the results array body exactly as write() emits it. */
    std::string
    renderResults() const
    {
        std::ostringstream os;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            os << (i ? ",\n    {" : "\n    {");
            os << "\"name\": \"" << escape(results_[i].first) << "\"";
            for (const auto &[k, v] : results_[i].second)
                os << ", \"" << escape(k) << "\": " << v;
            os << "}";
        }
        return os.str();
    }

    static std::string
    hex64(std::uint64_t v)
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(v >> (60 - 4 * i)) & 0xF];
        return out;
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
                continue;
            }
            out += c;
        }
        return out;
    }

    std::string bench_;
    bool quick_;
    unsigned jobs_;
    det::Probe probe_;
    std::chrono::steady_clock::time_point start_;
    double simulatedCycles_ = 0;
    double replayRecords_ = 0;
    std::string auditLevel_ = "off";
    double auditChecks_ = 0;
    bool hasModelcheck_ = false;
    double mcStates_ = 0;
    double mcSchedules_ = 0;
    double mcReduction_ = 0;
    double mcViolations_ = 0;
    bool hasCritpath_ = false;
    double cpPredicted_ = 0;
    double cpBandError_ = 0;
    double cpTotal_ = 0;
    double cpSimulated_ = 0;
    std::vector<std::pair<std::string, Fields>> results_;
};

/**
 * The shared main() prologue/epilogue of the reproduction benches:
 * parse the command line, quiet the inform stream, size the executor
 * from --jobs, and open the report with the resolved job count and
 * audit level. finish() writes the JSON (when --json was given) and
 * converts the outcome into main()'s exit status.
 */
struct BenchSession
{
    BenchArgs args;
    sim::SimExecutor ex;
    BenchReport report;

    BenchSession(const char *bench, int argc, char **argv)
        : args(parseArgs(argc, argv)), ex(args.jobs),
          report(bench, args, ex.jobs())
    {
        setInformEnabled(false);
        report.setAuditLevel(args.audit);
        if (args.forceScalar)
            simd::setForceScalar(true);
    }

    /**
     * Pre-parsed variant for benches that filter the command line
     * themselves (bench_micro_components hands --benchmark_* flags to
     * google-benchmark first) or are single-threaded by construction
     * (bench_mechanism_micro): --jobs is accepted for interface
     * uniformity but resolves to one worker, and the inform stream is
     * left alone.
     */
    BenchSession(const char *bench, BenchArgs parsed)
        : args(std::move(parsed)), ex(1), report(bench, args, 1)
    {
        report.setAuditLevel(args.audit);
        if (args.forceScalar)
            simd::setForceScalar(true);
    }

    int
    finish() const
    {
        return report.writeIfRequested(args) ? 0 : 1;
    }
};

} // namespace bench
} // namespace tlsim

#endif // BENCH_BENCHUTIL_H
