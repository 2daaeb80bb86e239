/**
 * @file
 * tlsim_perfbench: the per-layer side of the tlsim benchmark. It
 * regenerates the paper's Figure 5 and Figure 6 through the library
 * calls the bench mains make (captureTracesShared, DepGraph and
 * Analyzer::predict, runBar and TlsMachine::run on a SimExecutor, the
 * sim/report printers) and times every layer call from outside;
 * nothing inside the libraries is instrumented. The end-to-end
 * seconds come from the bench mains themselves (seeded_main.cc).
 * perfbench/run.py builds this program, runs its modes and turns their
 * JSON into the benchmark's metrics; perfbench/README.md explains the
 * workloads and metrics.
 *
 * Modes:
 *
 *   setup --input-seed N --load-seed M --cache DIR [--trace-out F]
 *       Capture the five Figure 6 benchmarks into an empty trace
 *       cache (the fig6 workloads' set-up). One JSON line.
 *   run --workload W --input-seed N --load-seed M --seconds S
 *       --cache DIR --trace-out F [--expect F]
 *       Regenerate the workload's artifact repeatedly for S seconds,
 *       then check the outputs. fig5-cold empties DIR before every
 *       repetition; the fig6 workloads load the cache set-up filled,
 *       whose capture digests F lists. Every second repetition records
 *       spans, written to F as Chrome trace-event JSON.
 *       Stdout is the last repetition's printed figure, then one JSON
 *       line.
 *   load-trace FILE
 *       Print FILE's content digest; exit 0 iff it loads.
 *
 * Simulation points run on a fixed kJobs-worker SimExecutor.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "base/dethash.h"
#include "base/log.h"
#include "base/stats.h"
#include "bench/benchutil.h"
#include "core/critpath/analyzer.h"
#include "core/critpath/graph.h"
#include "core/resulthash.h"
#include "core/traceindex.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/tracecache.h"
#include "sim/traceio.h"

using namespace tlsim;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kJobs = 4;

// The Figure 6 grid, as bench_figure6_sweep defines it.
const std::vector<unsigned> kCounts = {2, 4, 8};
const std::vector<std::uint64_t> kSpacings = {1000,  2500,  5000,
                                              10000, 25000, 50000};
const std::size_t kGrid = 18;
const std::size_t kBasePt = 2 * 6 + 2; // BASELINE = 8 x 5000

const std::vector<tpcc::TxnType> &
sweepBenches()
{
    static const std::vector<tpcc::TxnType> v = {
        tpcc::TxnType::NewOrder, tpcc::TxnType::NewOrder150,
        tpcc::TxnType::Delivery, tpcc::TxnType::DeliveryOuter,
        tpcc::TxnType::StockLevel,
    };
    return v;
}

double
now()
{
    static const Clock::time_point t0 = Clock::now();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
hex(std::uint64_t v)
{
    return strfmt("%016llx", static_cast<unsigned long long>(v));
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
counter(const char *name)
{
    return stats::GlobalCounters::instance().value(name);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

std::uint64_t
traceRecords(const WorkloadTrace &w)
{
    std::uint64_t n = 0;
    for (const auto &txn : w.txns)
        for (const auto &sec : txn.sections)
            for (const auto &e : sec.epochs)
                n += e.records.size();
    return n;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit.
// ---------------------------------------------------------------------

struct Span
{
    std::string layer;
    std::string name;
    double t0 = 0;
    double t1 = 0;
    int parent = -1;
    unsigned tid = 0;
    int rep = -1; ///< repetition id; -1 = attribution pass
};

class SpanLog
{
  public:
    bool on = false;
    int rep = -1;

    int
    open(const char *layer, const std::string &name, int parent)
    {
        if (!on)
            return -1;
        std::lock_guard<std::mutex> lk(mtx_);
        spans_.push_back({layer, name, now(), 0, parent, tid(), rep});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        double t = now();
        std::lock_guard<std::mutex> lk(mtx_);
        spans_[static_cast<std::size_t>(id)].t1 = t;
    }

    const std::vector<Span> &spans() const { return spans_; }

    bool
    write(const std::string &path, const std::string &workload) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "")
               << strfmt("{\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": %u, \"args\": "
                         "{\"id\": %zu, \"parent\": %d, "
                         "\"workload\": \"%s\", \"rep\": %d}}",
                         s.name.c_str(), s.layer.c_str(), s.t0 * 1e6,
                         (s.t1 - s.t0) * 1e6, s.tid, i, s.parent,
                         workload.c_str(), s.rep);
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    unsigned
    tid()
    {
        auto id = std::this_thread::get_id();
        auto it = tids_.find(id);
        if (it != tids_.end())
            return it->second;
        unsigned t = static_cast<unsigned>(tids_.size());
        tids_.emplace(id, t);
        return t;
    }

    std::mutex mtx_;
    std::vector<Span> spans_;
    std::map<std::thread::id, unsigned> tids_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *layer, const std::string &name,
               int parent)
        : log_(log), id_(log.open(layer, name, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Wall-clock self time per layer under one span: its duration minus
 * the part its children cover. Sequential children are descended
 * into; children that overlap (executor tasks on several workers)
 * split the interval they cover by their busy time.
 */
void
selfTimes(const std::vector<Span> &spans,
          const std::vector<std::vector<int>> &kids, int id,
          std::map<std::string, double> *out)
{
    const Span &s = spans[static_cast<std::size_t>(id)];
    const std::vector<int> &ch = kids[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> iv;
    double busy = 0;
    for (int c : ch) {
        const Span &k = spans[static_cast<std::size_t>(c)];
        iv.emplace_back(std::max(k.t0, s.t0), std::min(k.t1, s.t1));
        busy += k.t1 - k.t0;
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = -1e300;
    for (auto [a, b] : iv) {
        a = std::max(a, end);
        if (b > a) {
            covered += b - a;
            end = b;
        }
    }
    (*out)[s.layer] += (s.t1 - s.t0) - covered;
    if (ch.empty())
        return;
    if (busy <= covered * 1.001) {
        for (int c : ch)
            selfTimes(spans, kids, c, out);
        return;
    }
    for (int c : ch) {
        const Span &k = spans[static_cast<std::size_t>(c)];
        (*out)[k.layer] += covered * (k.t1 - k.t0) / busy;
    }
}

/** Self seconds per layer under the span `root`. */
std::map<std::string, double>
selfTimesUnder(const SpanLog &log, int root)
{
    const std::vector<Span> &sp = log.spans();
    std::vector<std::vector<int>> kids(sp.size());
    for (std::size_t s = 0; s < sp.size(); ++s)
        if (sp[s].parent >= 0)
            kids[static_cast<std::size_t>(sp[s].parent)].push_back(
                static_cast<int>(s));
    std::map<std::string, double> self;
    selfTimes(sp, kids, root, &self);
    return self;
}

// ---------------------------------------------------------------------
// Workload state
// ---------------------------------------------------------------------

/** One simulation point: a Figure 5 bar, or a Figure 6 grid point. */
struct Point
{
    std::size_t bench;
    bool sweep;        ///< Tls-mode grid point (else a Figure 5 bar)
    sim::Bar bar;      ///< when !sweep
    std::size_t grid;  ///< when sweep
};

struct Timed
{
    std::vector<RunResult> runs;
    std::vector<double> pointS;
    double wallS = 0;
    std::uint64_t steals = 0;
    std::uint64_t tasks = 0;
};

/** Everything measured in one repetition. */
struct Rep
{
    bool traced = false;
    double wall = 0;
    double tracecacheS = 0;
    double critGraphS = 0;
    double critPredictS = 0;
    double reportS = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds = 0;
    std::uint64_t predictions = 0;
    std::size_t simulated = 0;
    double bandError = 0;
    Timed replay;
    std::vector<sim::SharedTraces> traces;
    std::vector<std::uint64_t> captureDigests; ///< orig, tls per bench
    std::vector<std::uint64_t> resultDigests;
    std::vector<Point> points;
    std::string report; ///< the printed figure
    int rootSpan = -1;
};

struct Ctx
{
    SpanLog log;
    sim::SimExecutor ex{kJobs};
    std::vector<tpcc::TxnType> benches;
    std::vector<sim::ExperimentConfig> cfgs; ///< one per benchmark
    std::string cache;

    /** Operations: captures, trace reloads, simulation points,
     *  predictions, and the claim/contract/self-test checks. A failed
     *  check fails the operation it is keyed to (once). */
    std::uint64_t attempted = 0;
    std::set<std::string> failedOps;
    std::vector<std::string> failures;

    void
    fail(const std::string &op, const std::string &why)
    {
        if (failedOps.insert(op).second)
            failures.push_back(op + ": " + why);
    }

    /** A check that is an operation of its own. */
    void
    check(bool ok, const std::string &op, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(op, why);
    }
};

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t inputSeed = 0;
    std::uint64_t loadSeed = 0;
    double seconds = 10;
    std::string cache;
    std::string expect;
    std::string traceOut;
    std::vector<std::string> positional;
};

/** The paper-scale configuration of each benchmark, with the given
 *  TPC-C input and load seeds, over the trace cache a.cache. */
void
initBenches(Ctx &c, const std::vector<tpcc::TxnType> &benches,
            const Args &a)
{
    c.benches = benches;
    for (tpcc::TxnType t : benches) {
        sim::ExperimentConfig cfg =
            bench::configFor(t, bench::BenchArgs{});
        cfg.inputSeed = a.inputSeed;
        cfg.loadSeed = a.loadSeed;
        c.cfgs.push_back(cfg);
    }
    c.cache = a.cache;
}

/** Load (or capture and write) every benchmark through the cache. */
void
capturePhase(Ctx &c, Rep &r, const std::string &dir)
{
    const std::uint64_t hit0 = counter("tracecache.hit");
    const std::uint64_t miss0 = counter("tracecache.capture");
    const std::uint64_t build0 = TraceIndex::builds();
    const double t0 = now();
    r.traces.clear();
    for (std::size_t b = 0; b < c.benches.size(); ++b) {
        ScopedSpan s(c.log, "sim/tracecache",
                     tpcc::txnTypeName(c.benches[b]), r.rootSpan);
        r.traces.push_back(
            sim::captureTracesShared(c.benches[b], c.cfgs[b], dir));
    }
    r.tracecacheS = now() - t0;
    r.hits = counter("tracecache.hit") - hit0;
    r.misses = counter("tracecache.capture") - miss0;
    r.builds = TraceIndex::builds() - build0;
}

RunResult
runPoint(const Ctx &c, const Point &p, const sim::BenchmarkTraces &t)
{
    const sim::ExperimentConfig &cfg = c.cfgs[p.bench];
    if (!p.sweep)
        return sim::runBar(p.bar, t, cfg);
    MachineConfig mc = cfg.machine;
    mc.tls.subthreadsPerThread = kCounts[p.grid / kSpacings.size()];
    mc.tls.subthreadSpacing = kSpacings[p.grid % kSpacings.size()];
    TlsMachine m(mc);
    return m.run(t.tls, ExecMode::Tls, cfg.warmupTxns, t.tlsIndex.get());
}

/** Fan the points out over `ex`, timing each one. */
Timed
replayPhase(Ctx &c, sim::SimExecutor &ex, const std::vector<Point> &pts,
            const std::vector<sim::SharedTraces> &traces, int parent)
{
    Timed out;
    out.runs.resize(pts.size());
    out.pointS.resize(pts.size());
    const std::uint64_t steals0 = counter("executor.steals");
    const std::uint64_t tasks0 = counter("executor.tasks");
    ScopedSpan phase(c.log, "sim/executor", "parallelFor", parent);
    const double t0 = now();
    ex.parallelFor(pts.size(), [&](std::size_t i) {
        const Point &p = pts[i];
        std::string name = tpcc::txnTypeName(c.benches[p.bench]);
        ScopedSpan s(c.log, "core/machine",
                     p.sweep ? strfmt("%s k%u s%llu", name.c_str(),
                                      kCounts[p.grid / kSpacings.size()],
                                      static_cast<unsigned long long>(
                                          kSpacings[p.grid %
                                                    kSpacings.size()]))
                             : name + " " + sim::barName(p.bar),
                     phase.id());
        const double a = now();
        out.runs[i] = runPoint(c, p, *traces[p.bench]);
        out.pointS[i] = now() - a;
    });
    out.wallS = now() - t0;
    out.steals = counter("executor.steals") - steals0;
    out.tasks = counter("executor.tasks") - tasks0;
    return out;
}

std::vector<std::uint64_t>
digests(const std::vector<RunResult> &runs)
{
    std::vector<std::uint64_t> d;
    for (const RunResult &r : runs)
        d.push_back(det::hashRunResult(r));
    return d;
}

/** Indexes where `got` disagrees with `want` (a missing entry counts). */
std::vector<std::size_t>
mismatches(const std::vector<std::uint64_t> &got,
           const std::vector<std::uint64_t> &want)
{
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i)
        if (i >= got.size() || i >= want.size() || got[i] != want[i])
            bad.push_back(i);
    return bad;
}

std::vector<std::uint64_t>
traceDigests(const std::vector<sim::SharedTraces> &traces)
{
    std::vector<std::uint64_t> d;
    for (const sim::SharedTraces &t : traces) {
        d.push_back(det::hashWorkloadTrace(t->original));
        d.push_back(det::hashWorkloadTrace(t->tls));
    }
    return d;
}

// ---------------------------------------------------------------------
// Figure 5 (fig5-cold)
// ---------------------------------------------------------------------

std::vector<Point>
figure5Points(std::size_t nbench)
{
    std::vector<Point> pts;
    for (std::size_t b = 0; b < nbench; ++b)
        for (sim::Bar bar : sim::allBars())
            pts.push_back({b, false, bar, 0});
    return pts;
}

std::vector<sim::Figure5Row>
figure5Rows(const Ctx &c, const std::vector<RunResult> &runs)
{
    const std::vector<sim::Bar> &bars = sim::allBars();
    std::vector<sim::Figure5Row> rows;
    for (std::size_t b = 0; b < c.benches.size(); ++b) {
        sim::Figure5Row row;
        row.type = c.benches[b];
        for (std::size_t j = 0; j < bars.size(); ++j)
            row.bars.emplace_back(bars[j], runs[b * bars.size() + j]);
        rows.push_back(std::move(row));
    }
    return rows;
}

void
fig5Rep(Ctx &c, Rep &r, const std::string &dir)
{
    capturePhase(c, r, dir);
    r.points = figure5Points(c.benches.size());
    r.replay = replayPhase(c, c.ex, r.points, r.traces, r.rootSpan);
    ScopedSpan s(c.log, "sim/report", "figure5", r.rootSpan);
    const double t0 = now();
    std::ostringstream os;
    std::vector<sim::Figure5Row> rows = figure5Rows(c, r.replay.runs);
    for (const sim::Figure5Row &row : rows)
        sim::printFigure5Row(os, row);
    sim::printSpeedupSummary(os, rows);
    r.report = os.str();
    r.reportS = now() - t0;
}

// ---------------------------------------------------------------------
// Figure 6 (fig6-sweep, fig6-oracle)
// ---------------------------------------------------------------------

void
fig6Rep(Ctx &c, Rep &r, bool oracle)
{
    capturePhase(c, r, c.cache);
    const std::size_t nb = c.benches.size();

    std::vector<std::vector<critpath::Prediction>> preds(nb);
    std::vector<std::vector<char>> simulate(nb,
                                            std::vector<char>(kGrid, 1));
    if (oracle) {
        for (std::size_t b = 0; b < nb; ++b) {
            const std::string name = tpcc::txnTypeName(c.benches[b]);
            double g0 = now();
            std::unique_ptr<critpath::DepGraph> g;
            {
                ScopedSpan s(c.log, "core/critpath", name + " graph",
                             r.rootSpan);
                g = std::make_unique<critpath::DepGraph>(
                    r.traces[b]->tls, *r.traces[b]->tlsIndex,
                    c.cfgs[b].machine);
            }
            double p0 = now();
            r.critGraphS += p0 - g0;
            ScopedSpan s(c.log, "core/critpath", name + " predict",
                         r.rootSpan);
            critpath::Analyzer an(*g);
            preds[b].resize(kGrid);
            for (std::size_t j = 0; j < kGrid; ++j) {
                critpath::AnalyzerConfig ac;
                ac.subthreads = kCounts[j / kSpacings.size()];
                ac.spacing = kSpacings[j % kSpacings.size()];
                ac.warmupTxns = c.cfgs[b].warmupTxns;
                preds[b][j] = an.predict(ac);
                ++r.predictions;
            }
            // The frontier bench_figure6_sweep simulates: BASELINE,
            // the predicted-best spacing per count, and the
            // large-spacing edge per count.
            simulate[b].assign(kGrid, 0);
            simulate[b][kBasePt] = 1;
            for (std::size_t ci = 0; ci < kCounts.size(); ++ci) {
                std::size_t best = ci * kSpacings.size();
                for (std::size_t si = 1; si < kSpacings.size(); ++si) {
                    std::size_t j = ci * kSpacings.size() + si;
                    if (preds[b][j].makespan < preds[b][best].makespan)
                        best = j;
                }
                simulate[b][best] = 1;
                simulate[b][(ci + 1) * kSpacings.size() - 1] = 1;
            }
            r.critPredictS += now() - p0;
        }
    }

    r.points.clear();
    for (std::size_t b = 0; b < nb; ++b) {
        r.points.push_back({b, false, sim::Bar::Sequential, 0});
        for (std::size_t j = 0; j < kGrid; ++j)
            if (simulate[b][j])
                r.points.push_back({b, true, sim::Bar::Baseline, j});
    }
    r.replay = replayPhase(c, c.ex, r.points, r.traces, r.rootSpan);

    // Assemble the sweep series; pruned points get the prediction
    // calibrated on the simulated BASELINE.
    std::vector<std::vector<sim::SweepPoint>> series(nb);
    std::vector<Cycle> seq(nb);
    {
        ScopedSpan s(c.log, oracle ? "core/critpath" : "bench",
                     oracle ? "calibrate" : "series", r.rootSpan);
        const double t0 = now();
        for (std::size_t b = 0; b < nb; ++b)
            series[b].resize(kGrid);
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const Point &p = r.points[i];
            if (!p.sweep) {
                seq[p.bench] = r.replay.runs[i].makespan;
                continue;
            }
            series[p.bench][p.grid].run = r.replay.runs[i];
        }
        for (std::size_t b = 0; b < nb; ++b) {
            for (std::size_t j = 0; j < kGrid; ++j) {
                series[b][j].subthreads = kCounts[j / kSpacings.size()];
                series[b][j].spacing = kSpacings[j % kSpacings.size()];
            }
            if (!oracle)
                continue;
            const double calib =
                static_cast<double>(series[b][kBasePt].run.makespan) /
                static_cast<double>(preds[b][kBasePt].makespan);
            for (std::size_t j = 0; j < kGrid; ++j) {
                double est =
                    calib * static_cast<double>(preds[b][j].makespan);
                if (!simulate[b][j]) {
                    series[b][j].run.makespan =
                        static_cast<Cycle>(std::llround(est));
                    continue;
                }
                double simd_ms =
                    static_cast<double>(series[b][j].run.makespan);
                if (j != kBasePt && simd_ms > 0)
                    r.bandError = std::max(
                        r.bandError, std::abs(est - simd_ms) / simd_ms);
            }
        }
        if (oracle)
            r.critPredictS += now() - t0;
    }
    r.simulated = r.points.size() - nb;

    ScopedSpan s(c.log, "sim/report", "figure6", r.rootSpan);
    const double t0 = now();
    std::ostringstream os;
    if (oracle)
        os << strfmt("oracle pruning: simulated %zu of %zu grid points "
                     "(band error %.1f%%)\n\n",
                     r.simulated, kGrid * nb, r.bandError * 100.0);
    for (std::size_t b = 0; b < nb; ++b)
        sim::printFigure6(os, tpcc::txnTypeName(c.benches[b]), series[b],
                          seq[b]);
    r.report = os.str();
    r.reportS = now() - t0;
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

class JsonOut
{
  public:
    void
    num(const std::string &k, double v)
    {
        item(k, strfmt("%.9g", std::isfinite(v) ? v : 0.0));
    }
    void
    str(const std::string &k, const std::string &v)
    {
        item(k, "\"" + v + "\"");
    }
    void
    raw(const std::string &k, const std::string &v)
    {
        item(k, v);
    }
    std::string done() const { return "{" + body_ + "}"; }

  private:
    void
    item(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + v;
    }
    std::string body_;
};

std::string
jsonList(const std::vector<std::string> &items, bool quote)
{
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::string v = items[i];
        if (quote) {
            std::string e;
            for (char ch : v)
                e += (ch == '"' || ch == '\\') ? std::string("\\") + ch
                                               : std::string(1, ch);
            v = "\"" + e + "\"";
        }
        s += (i ? ", " : "") + v;
    }
    return s + "]";
}

std::string
jsonNums(const std::vector<double> &v)
{
    std::vector<std::string> s;
    for (double d : v)
        s.push_back(strfmt("%.9g", d));
    return jsonList(s, false);
}

std::string
jsonHex(const std::vector<std::uint64_t> &v)
{
    std::vector<std::string> s;
    for (std::uint64_t d : v)
        s.push_back(hex(d));
    return jsonList(s, true);
}

/**
 * Per-layer seconds inside captureTracesShared, found by re-running the
 * inner layers' own public functions on the same inputs (the
 * attribution pass, outside every repetition). Keys: tpcc,
 * traceio.save, traceio.load, traceindex. A cold cache path captures,
 * saves and builds indexes; a warm one loads.
 */
std::map<std::string, double>
attributeCache(Ctx &c, const std::vector<sim::SharedTraces> &traces,
               bool cold, const std::string &scratch)
{
    std::map<std::string, double> t;
    SpanLog &log = c.log;
    const bool was = log.on;
    const int was_rep = log.rep;
    log.on = true;
    log.rep = -1;
    int root = log.open("bench", "attribution", -1);
    fs::create_directories(scratch);
    for (std::size_t b = 0; b < c.benches.size(); ++b) {
        const std::string name = tpcc::txnTypeName(c.benches[b]);
        const unsigned line = c.cfgs[b].machine.mem.lineBytes;
        sim::BenchmarkTraces fresh;
        if (cold) {
            ScopedSpan s(log, "tpcc", name + " captureTraces", root);
            const double a = now();
            fresh = sim::captureTraces(c.benches[b], c.cfgs[b]);
            t["tpcc"] += now() - a;
        }
        const sim::BenchmarkTraces &src = cold ? fresh : *traces[b];
        const std::string orig = scratch + "/a.orig.trace";
        const std::string tls = scratch + "/a.tls.trace";
        {
            ScopedSpan s(log, "sim/traceio", name + " saveTraceFile",
                         root);
            const double a = now();
            sim::saveTraceFile(orig, src.original);
            sim::saveTraceFile(tls, src.tls);
            t["traceio.save"] += now() - a;
        }
        {
            ScopedSpan s(log, "sim/traceio", name + " loadTraceFile",
                         root);
            WorkloadTrace w;
            const double a = now();
            sim::loadTraceFile(orig, &w);
            sim::loadTraceFile(tls, &w);
            t["traceio.load"] += now() - a;
        }
        {
            ScopedSpan s(log, "core/traceindex", name + " TraceIndex",
                         root);
            const double a = now();
            TraceIndex io(src.original, line);
            TraceIndex it(src.tls, line);
            t["traceindex"] += now() - a;
        }
    }
    log.close(root);
    fs::remove_all(scratch);
    log.on = was;
    log.rep = was_rep;
    return t;
}

/**
 * Split the sim/tracecache self time by the attribution: the layers a
 * cold path runs (capture, save, index build) or a warm one (load).
 * The warm path attaches cached indexes instead of building them, so
 * that stays tracecache time.
 */
void
splitCacheTime(std::map<std::string, double> *self,
               const std::map<std::string, double> &attr, bool cold)
{
    const std::vector<std::pair<std::string, std::string>> onPath =
        cold ? std::vector<std::pair<std::string, std::string>>{
                   {"tpcc", "tpcc"},
                   {"traceio.save", "sim/traceio"},
                   {"traceindex", "core/traceindex"}}
             : std::vector<std::pair<std::string, std::string>>{
                   {"traceio.load", "sim/traceio"}};
    double inner = 0;
    for (const auto &[key, layer] : onPath)
        inner += attr.count(key) ? attr.at(key) : 0;
    auto it = self->find("sim/tracecache");
    if (inner <= 0 || it == self->end() || it->second <= 0)
        return;
    const double scale = std::min(1.0, it->second / inner);
    for (const auto &[key, layer] : onPath) {
        double v = (attr.count(key) ? attr.at(key) : 0) * scale;
        (*self)[layer] += v;
        (*self)["sim/tracecache"] -= v;
    }
    (*self)["sim/tracecache"] = std::max(0.0, (*self)["sim/tracecache"]);
}

/** Model counters over a set of results. */
struct ModelSums
{
    double cycles = 0, violations = 0, failed = 0, total = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    double committed = 0, rewound = 0, records = 0;

    void
    add(const RunResult &r)
    {
        cycles += static_cast<double>(r.makespan);
        violations += static_cast<double>(r.primaryViolations);
        failed += static_cast<double>(r.total[Cat::Failed]);
        total += static_cast<double>(r.total.total());
        l1h += static_cast<double>(r.l1Hits);
        l1m += static_cast<double>(r.l1Misses);
        l2h += static_cast<double>(r.l2Hits);
        l2m += static_cast<double>(r.l2Misses);
        committed += static_cast<double>(r.totalInsts);
        rewound += static_cast<double>(r.rewoundInsts);
        records += static_cast<double>(r.recordsReplayed);
    }
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

[[noreturn]] void
usageExit()
{
    std::fprintf(stderr,
                 "usage: tlsim_perfbench setup --input-seed N "
                 "--load-seed M --cache DIR [--trace-out F]\n"
                 "       tlsim_perfbench run --workload "
                 "fig5-cold|fig6-sweep|fig6-oracle --input-seed N "
                 "--load-seed M --seconds S --cache DIR --trace-out F "
                 "[--expect F]\n"
                 "       tlsim_perfbench load-trace FILE\n");
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        usageExit();
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usageExit();
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--input-seed")
                a.inputSeed = std::stoull(val());
            else if (k == "--load-seed")
                a.loadSeed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--cache")
                a.cache = val();
            else if (k == "--expect")
                a.expect = val();
            else if (k == "--trace-out")
                a.traceOut = val();
            else if (k.rfind("--", 0) == 0)
                usageExit();
            else
                a.positional.push_back(k);
        } catch (const std::exception &) {
            usageExit();
        }
    }
    return a;
}

int
loadTraceMode(const Args &a)
{
    if (a.positional.size() != 1)
        usageExit();
    WorkloadTrace w;
    if (!sim::loadTraceFile(a.positional[0], &w))
        return 3;
    std::printf("%s\n", hex(det::hashWorkloadTrace(w)).c_str());
    return 0;
}

int
setupMode(const Args &a)
{
    Ctx c;
    initBenches(c, sweepBenches(), a);
    c.log.on = !a.traceOut.empty();
    c.log.rep = 0;
    Rep r;
    const double t0 = now();
    r.rootSpan = c.log.open("bench", "setup", -1);
    capturePhase(c, r, a.cache);
    c.log.close(r.rootSpan);
    const double setup_s = now() - t0;
    const double rss = peakRssMb();

    std::uint64_t records = 0;
    for (std::size_t b = 0; b < c.benches.size(); ++b) {
        records += traceRecords(r.traces[b]->original) +
                   traceRecords(r.traces[b]->tls);
    }
    const std::vector<std::uint64_t> dig = traceDigests(r.traces);
    // The "capture" stage digest bench_figure6_sweep --det-probe
    // reports for the same traces.
    det::Probe probe(true);
    std::vector<std::uint64_t> items;
    for (std::size_t b = 0; b < dig.size(); b += 2) {
        det::Hash h;
        h.u64(dig[b]);
        h.u64(dig[b + 1]);
        items.push_back(h.value());
    }
    probe.stageItems("capture", items);
    std::uint64_t bytes = 0;
    for (const auto &e : fs::directory_iterator(a.cache))
        if (e.path().extension() == ".trace")
            bytes += e.file_size();

    JsonOut j;
    j.num("setup_s", setup_s);
    j.num("rss_mb", rss);
    j.raw("capture_digests", jsonHex(dig));
    j.str("capture_stage", hex(probe.stages()[0].second));
    j.num("tpcc.records", static_cast<double>(records));
    j.num("tpcc.captures", static_cast<double>(2 * r.misses));
    j.num("traceio.bytes", static_cast<double>(bytes));
    j.num("tracecache.s", r.tracecacheS);
    j.num("traceindex.builds", static_cast<double>(r.builds));
    if (c.log.on) {
        for (const auto &[k, v] :
             attributeCache(c, r.traces, true, a.cache + "-attribution"))
            j.num("attr." + k, v);
        if (!c.log.write(a.traceOut, "setup"))
            return 1;
    }
    std::printf("%s\n", j.done().c_str());
    return 0;
}

std::vector<std::uint64_t>
readExpected(const std::string &path)
{
    std::vector<std::uint64_t> v;
    std::ifstream is(path);
    std::string tok;
    while (is >> tok)
        v.push_back(std::stoull(tok, nullptr, 16));
    return v;
}

/**
 * The checks on one repetition, outside its timed region: trace
 * reloads against the captured digests, the pruning contract, and
 * agreement with earlier repetitions that replayed identical traces
 * (run.py checks the Figure 5 claims on the printed figure).
 * `cold_dir` is the fig5-cold cache the repetition wrote ("" for the
 * fig6 workloads, whose repetitions load the set-up's cache and are
 * checked against `expected`).
 */
void
checkRep(Ctx &c, Rep &r, int i, const std::vector<Rep> &reps,
         const std::vector<std::uint64_t> &expected,
         const std::string &cold_dir, bool oracle)
{
    r.captureDigests = traceDigests(r.traces);
    r.resultDigests = digests(r.replay.runs);
    c.attempted += r.points.size() + r.predictions;
    std::vector<std::uint64_t> reloadDigests, wantDigests;
    if (!cold_dir.empty()) {
        c.attempted += c.benches.size(); // captures
        r.traces.clear();
        std::vector<sim::SharedTraces> reloaded;
        for (std::size_t b = 0; b < c.benches.size(); ++b)
            reloaded.push_back(sim::captureTracesShared(
                c.benches[b], c.cfgs[b], cold_dir));
        reloadDigests = traceDigests(reloaded);
        wantDigests = r.captureDigests;
        r.traces = reloaded;
    } else {
        reloadDigests = r.captureDigests;
        wantDigests = expected;
        if (oracle)
            c.check(2 * r.simulated <= kGrid * c.benches.size(),
                    strfmt("rep%d/pruning", i),
                    strfmt("simulated %zu of %zu grid points",
                           r.simulated, kGrid * c.benches.size()));
    }
    c.attempted += reloadDigests.size();
    for (std::size_t k : mismatches(reloadDigests, wantDigests))
        c.fail(strfmt("rep%d/reload%zu", i, k),
               "reloaded trace digest differs from the capture");
    for (const Rep &o : reps) {
        if (o.captureDigests != r.captureDigests)
            continue;
        for (std::size_t k : mismatches(r.resultDigests, o.resultDigests))
            c.fail(strfmt("rep%d/point%zu", i, k),
                   "result digest differs from an earlier rep on "
                   "identical traces");
        break;
    }
}

/** One repetition's per-layer figures, keyed by metric name. */
std::map<std::string, double>
repFigures(const Rep &r)
{
    ModelSums ms;
    for (const RunResult &run : r.replay.runs)
        ms.add(run);
    double busy = 0;
    for (double s : r.replay.pointS)
        busy += s;

    // BASELINE speedup geomean: Figure 5's BASELINE bars, or the
    // 8 x 5000 grid point of each Figure 6 benchmark.
    double logsum = 0;
    unsigned n = 0;
    Cycle seq = 0;
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        const Point &p = r.points[i];
        const Cycle ms_i = r.replay.runs[i].makespan;
        if (!p.sweep && p.bar == sim::Bar::Sequential)
            seq = ms_i;
        bool base =
            p.sweep ? p.grid == kBasePt : p.bar == sim::Bar::Baseline;
        if (base && seq && ms_i) {
            logsum += std::log(static_cast<double>(seq) /
                               static_cast<double>(ms_i));
            ++n;
        }
    }

    auto d = [](auto v) { return static_cast<double>(v); };
    return {
        {"tracecache.s", r.tracecacheS},
        {"tracecache.hit", d(r.hits)},
        {"tracecache.capture", d(r.misses)},
        {"traceindex.builds", d(r.builds)},
        {"critpath.graph_s", r.critGraphS},
        {"critpath.predict_s", r.critPredictS},
        {"critpath.predictions", d(r.predictions)},
        {"critpath.points_simulated", d(r.simulated)},
        {"critpath.band_error", r.bandError},
        {"machine.run_s", busy},
        {"machine.runs", d(r.replay.runs.size())},
        {"machine.records", ms.records},
        {"machine.ns_per_record", ratio(busy, ms.records) * 1e9},
        {"machine.minst_per_s", ratio(ms.committed, busy) / 1e6},
        {"machine.useful_frac",
         ratio(ms.committed, ms.committed + ms.rewound)},
        {"model.cycles", ms.cycles},
        {"model.violations", ms.violations},
        {"model.failed_cycle_frac", ratio(ms.failed, ms.total)},
        {"model.l1_miss_frac", ratio(ms.l1m, ms.l1h + ms.l1m)},
        {"model.l2_miss_frac", ratio(ms.l2m, ms.l2h + ms.l2m)},
        {"model.baseline_speedup_geomean",
         n ? std::exp(logsum / n) : 0},
        {"executor.busy_s", busy},
        {"executor.utilization", ratio(busy, r.replay.wallS * kJobs)},
        {"executor.wall_utilization", ratio(busy, r.wall * kJobs)},
        {"executor.tasks", d(r.replay.tasks)},
        {"executor.steals", d(r.replay.steals)},
        {"report_s", r.reportS},
    };
}

int
runMode(const Args &a)
{
    const bool fig5 = a.workload == "fig5-cold";
    const bool oracle = a.workload == "fig6-oracle";
    if (!fig5 && !oracle && a.workload != "fig6-sweep")
        usageExit();
    if (a.cache.empty() || a.traceOut.empty())
        usageExit();

    Ctx c;
    initBenches(c, fig5 ? tpcc::allBenchmarks() : sweepBenches(), a);
    const std::vector<std::uint64_t> expected =
        a.expect.empty() ? std::vector<std::uint64_t>{}
                         : readExpected(a.expect);

    std::vector<Rep> reps;
    double rssCapture = 0;
    std::map<std::string, std::vector<double>> selfs;
    const double start = now();
    std::size_t lastFull = 0;
    // At least one traced and one untraced repetition.
    for (int i = 0; reps.size() < 2 || now() - start < a.seconds;
         ++i) {
        // Only one repetition's traces are alive at a time.
        if (!reps.empty())
            reps.back().traces.clear();
        Rep r;
        if (fig5) {
            fs::remove_all(c.cache);
            fs::create_directories(c.cache);
        }
        r.traced = i % 2 == 1;
        c.log.on = r.traced;
        c.log.rep = i;
        const double t0 = now();
        r.rootSpan = c.log.open("bench", a.workload, -1);
        try {
            if (fig5)
                fig5Rep(c, r, c.cache);
            else
                fig6Rep(c, r, oracle);
        } catch (const std::exception &e) {
            c.log.close(r.rootSpan);
            c.check(false, strfmt("rep%d", i),
                    strfmt("threw: %s", e.what()));
            reps.push_back(std::move(r));
            continue;
        }
        c.log.close(r.rootSpan);
        r.wall = now() - t0;
        c.log.on = false;
        if (i == 0)
            rssCapture = peakRssMb();

        checkRep(c, r, i, reps, expected, fig5 ? c.cache : "", oracle);
        if (r.traced)
            for (const auto &[k, v] : selfTimesUnder(c.log, r.rootSpan))
                selfs[k].push_back(v);
        lastFull = reps.size();
        reps.push_back(std::move(r));
    }
    const double peak = peakRssMb();

    // 1-worker recomputation of the newest repetition's points.
    Rep &last = reps[lastFull];
    if (!last.traces.empty()) {
        sim::SimExecutor one(1);
        Timed ref = replayPhase(c, one, last.points, last.traces, -1);
        for (std::size_t k :
             mismatches(last.resultDigests, digests(ref.runs)))
            c.fail(strfmt("rep%zu/point%zu", lastFull, k),
                   "differs from its 1-worker recomputation");
    }
    // Self-test: the digest comparison catches one perturbed digest.
    {
        std::vector<std::uint64_t> bent = last.resultDigests;
        if (!bent.empty())
            bent[bent.size() / 2] ^= 1;
        c.check(mismatches(bent, last.resultDigests).size() == 1,
                "selftest/result-digest",
                "a perturbed result digest was not caught");
    }

    // Per-layer figures, per repetition.
    std::vector<double> walls, walls_plain, walls_traced;
    std::map<std::string, std::vector<double>> m;
    std::vector<double> pointMs;
    std::vector<std::string> capDigests;
    for (const Rep &r : reps) {
        if (r.wall <= 0)
            continue;
        walls.push_back(r.wall);
        (r.traced ? walls_traced : walls_plain).push_back(r.wall);
        capDigests.push_back(jsonHex(r.captureDigests));
        for (double s : r.replay.pointS)
            pointMs.push_back(s * 1e3);
        for (const auto &[k, v] : repFigures(r))
            m[k].push_back(v);
    }

    std::map<std::string, double> attr;
    if (!last.traces.empty())
        attr = attributeCache(c, last.traces, fig5,
                              a.cache + "-attribution");
    std::map<std::string, double> selfMed;
    for (const auto &[k, v] : selfs)
        selfMed[k] = median(v);
    splitCacheTime(&selfMed, attr, fig5);

    JsonOut j;
    j.str("workload", a.workload);
    j.num("attempted", static_cast<double>(c.attempted));
    j.num("failed", static_cast<double>(c.failedOps.size()));
    j.raw("failures", jsonList(c.failures, true));
    j.raw("walls", jsonNums(walls));
    j.raw("records", jsonNums(m["machine.records"]));
    j.num("peak_rss_mb", peak);
    j.num("rss_after_first_rep_mb", rssCapture);
    j.raw("capture_digests", jsonList(capDigests, false));
    j.raw("result_digests", jsonHex(last.resultDigests));
    for (const auto &[k, v] : m)
        j.num(k, median(v));
    j.num("machine.point_ms.p50", percentile(pointMs, 0.5));
    j.num("machine.point_ms.p90", percentile(pointMs, 0.9));
    j.num("machine.point_count", static_cast<double>(pointMs.size()));
    {
        double conflict = 0, total = 0;
        for (const sim::SharedTraces &t : last.traces) {
            conflict += static_cast<double>(t->tlsIndex->totals().conflict);
            total += static_cast<double>(t->tlsIndex->totals().total());
        }
        j.num("traceindex.conflict_frac", ratio(conflict, total));
        std::uint64_t records = 0, bytes = 0;
        for (const sim::SharedTraces &t : last.traces)
            records += traceRecords(t->original) + traceRecords(t->tls);
        for (const auto &e : fs::directory_iterator(c.cache))
            if (e.path().extension() == ".trace")
                bytes += e.file_size();
        j.num("tpcc.records", static_cast<double>(records));
        j.num("traceio.bytes", static_cast<double>(bytes));
    }
    for (const auto &[k, v] : attr)
        j.num("attr." + k, v);
    for (const auto &[k, v] : selfMed)
        j.num("self." + k, v);
    j.num("wall_plain_s", median(walls_plain));
    j.num("wall_traced_s", median(walls_traced));
    j.num("spans", static_cast<double>(c.log.spans().size()));
    std::printf("%s\n%s\n", last.report.c_str(), j.done().c_str());
    if (!c.log.write(a.traceOut, a.workload))
        return 1;
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    Args a = parse(argc, argv);
    if (a.mode == "setup" && !a.cache.empty())
        return setupMode(a);
    if (a.mode == "run")
        return runMode(a);
    if (a.mode == "load-trace")
        return loadTraceMode(a);
    usageExit();
}
