/**
 * @file
 * Schedule replay through the real TlsMachine.
 */

#include "verify/modelcheck/bisim.h"

#include <sstream>

#include "base/log.h"
#include "base/rng.h"
#include "core/machine.h"
#include "core/site.h"
#include "core/tracer.h"
#include "verify/auditor.h"
#include "verify/modelcheck/explorer.h"
#include "verify/modelcheck/programs.h"

namespace tlsim {
namespace verify {
namespace mc {

namespace {

/** Model-line stride in the lowered trace, in 8-byte words. Distinct
 *  model lines land on distinct machine lines for any lineBytes up to
 *  64, and 4-byte accesses at the stride never straddle a line. */
constexpr std::size_t kLineStrideWords = 8;

/** AuditSink decorator: forwards to the real Auditor and records the
 *  protocol event sequence for comparison with the model's. */
class EventRecorder : public AuditSink
{
  public:
    explicit EventRecorder(AuditSink *inner) : inner_(inner) {}

    void
    onRunStart(const AuditView &view) override
    {
        inner_->onRunStart(view);
    }
    void
    onEpochStart(const AuditView &view, CpuId cpu,
                 std::uint64_t seq) override
    {
        events_.push_back({Event::Kind::EpochStart, cpu, seq});
        inner_->onEpochStart(view, cpu, seq);
    }
    void
    onSpawn(const AuditView &view, CpuId cpu, unsigned new_sub) override
    {
        events_.push_back({Event::Kind::Spawn, cpu, new_sub});
        inner_->onSpawn(view, cpu, new_sub);
    }
    void
    onAccess(const AuditView &view, CpuId cpu, Addr line) override
    {
        inner_->onAccess(view, cpu, line);
    }
    void
    onCommit(const AuditView &view, CpuId cpu,
             std::uint64_t seq) override
    {
        events_.push_back({Event::Kind::Commit, cpu, seq});
        inner_->onCommit(view, cpu, seq);
    }
    void
    onSquash(const AuditView &view, CpuId cpu, unsigned sub) override
    {
        events_.push_back({Event::Kind::Squash, cpu, sub});
        inner_->onSquash(view, cpu, sub);
    }
    std::uint64_t checks() const override { return inner_->checks(); }

    const std::vector<Event> &events() const { return events_; }

  private:
    AuditSink *inner_;
    std::vector<Event> events_;
};

/** Feeds the machine the model's schedule, verifying at every
 *  scheduler iteration that the runnable sets coincide. */
class ReplayOracle : public ScheduleOracle
{
  public:
    ReplayOracle(std::vector<unsigned> picks,
                 std::vector<std::vector<ScheduleChoice>> runnable)
        : picks_(std::move(picks)), runnable_(std::move(runnable))
    {
    }

    std::size_t
    pick(const std::vector<ScheduleChoice> &choices) override
    {
        if (!error_.empty())
            return kDefaultPick; // already diverged; let the run drain
        if (next_ >= picks_.size()) {
            error_ = "machine scheduler ran past the end of the model "
                     "schedule";
            return kDefaultPick;
        }
        const auto &want = runnable_[next_];
        if (!sameRunnable(want, choices)) {
            std::ostringstream os;
            os << "runnable-set divergence at step " << next_
               << ": model {" << fmt(want) << "} machine {"
               << fmt(choices) << "}";
            error_ = os.str();
            return kDefaultPick;
        }
        unsigned cpu = picks_[next_];
        ++next_;
        for (std::size_t i = 0; i < choices.size(); ++i)
            if (choices[i].cpu == cpu)
                return i;
        // Unreachable given sameRunnable, but fail loudly if not.
        error_ = "scheduled epoch not among runnable slots";
        return kDefaultPick;
    }

    const std::string &error() const { return error_; }
    std::size_t used() const { return next_; }

  private:
    static bool
    sameRunnable(const std::vector<ScheduleChoice> &a,
                 const std::vector<ScheduleChoice> &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].cpu != b[i].cpu || a[i].seq != b[i].seq ||
                a[i].commitReady != b[i].commitReady)
                return false;
        return true;
    }

    static std::string
    fmt(const std::vector<ScheduleChoice> &v)
    {
        std::ostringstream os;
        for (const auto &c : v)
            os << ' ' << c.cpu << (c.commitReady ? "!" : "");
        return os.str();
    }

    std::vector<unsigned> picks_;
    std::vector<std::vector<ScheduleChoice>> runnable_;
    std::size_t next_ = 0;
    std::string error_;
};

template <typename T>
bool
diff(std::ostringstream &os, const char *what, const T &model,
     const T &machine)
{
    if (model == machine)
        return false;
    os << what << ": model " << model << ", machine " << machine << "; ";
    return true;
}

} // namespace

BisimOutcome
replaySchedule(const ModelConfig &cfg,
               const std::vector<Program> &programs,
               const std::vector<unsigned> &schedule)
{
    if (cfg.mutation != Mutation::None)
        panic("bisim requires an unmutated model");
    if (cfg.versionBound != 0)
        panic("bisim cannot replay the abstract version bound");

    BisimOutcome out;
    out.modelSteps = schedule.size();

    // ---- model pass: final state + expected runnable set per step --
    ModelState st(cfg, programs);
    std::vector<std::vector<ScheduleChoice>> runnable;
    runnable.reserve(schedule.size());
    std::uint64_t exec_steps = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        std::vector<ScheduleChoice> r;
        for (unsigned d : st.enabledEpochs())
            r.push_back({d, d, st.nextAction(d) == StepKind::Commit});
        runnable.push_back(std::move(r));
        unsigned e = schedule[i];
        if (e >= cfg.epochs || !st.enabled(e))
            panic("bisim schedule step %zu: epoch %u not enabled", i, e);
        StepRecord rec = st.step(e);
        // Every Exec is one machine trace record (violating stores
        // still complete; only overflow retries, impossible here).
        if (rec.kind == StepKind::Exec)
            ++exec_steps;
    }
    if (!st.terminal()) {
        out.detail = "schedule is not maximal";
        return out;
    }

    // ---- lower the programs to a captured trace --------------------
    std::vector<std::uint64_t> buf(cfg.lines * kLineStrideWords, 0);
    Tracer::Options topts;
    topts.parallelMode = true;
    topts.spawnOverheadInsts = 0; // records map 1:1 to model ops
    Tracer tracer(topts);
    TracedRegion region(tracer, buf.data(), buf.size() * sizeof(buf[0]));
    Pc pc = sitePc(SiteId::VerifyModelcheckBisim);
    tracer.txnBegin();
    tracer.loopBegin();
    for (const Program &p : programs) {
        tracer.iterBegin();
        for (const Op &op : p) {
            switch (op.kind) {
              case OpKind::Tick:
                tracer.compute(pc, cfg.tickInsts);
                break;
              case OpKind::Load:
                tracer.load(pc, &buf[op.line * kLineStrideWords], 4);
                break;
              case OpKind::Store:
                tracer.store(pc, &buf[op.line * kLineStrideWords], 4);
                break;
            }
        }
    }
    tracer.loopEnd();
    tracer.txnEnd();
    WorkloadTrace workload = tracer.takeWorkload();

    // ---- machine pass ----------------------------------------------
    MachineConfig mcfg;
    mcfg.tls.numCpus = cfg.epochs; // epoch i -> cpu i, 1:1
    mcfg.tls.subthreadsPerThread = cfg.k;
    mcfg.tls.subthreadSpacing = cfg.spacing;
    mcfg.tls.adaptiveSpacing = false;
    mcfg.tls.useStartTable = cfg.useStartTable;
    mcfg.tls.useConflictOracle = false; // dynamic coverage semantics
    mcfg.tls.useDependencePredictor = false;
    mcfg.tls.auditLevel = AuditLevel::Full;

    TlsMachine machine(mcfg);
    Auditor auditor(AuditLevel::Full);
    EventRecorder recorder(&auditor);
    machine.setAuditSink(&recorder);
    ReplayOracle oracle(schedule, std::move(runnable));
    machine.setScheduleOracle(&oracle);

    RunResult res;
    try {
        res = machine.run(workload, ExecMode::Tls);
    } catch (const AuditViolation &v) {
        out.detail = std::string("machine auditor: ") + v.what();
        return out;
    }
    out.auditChecks = res.auditChecks;

    if (!oracle.error().empty()) {
        out.detail = oracle.error();
        return out;
    }
    if (oracle.used() != schedule.size()) {
        std::ostringstream os;
        os << "machine finished after " << oracle.used() << " of "
           << schedule.size() << " model steps";
        out.detail = os.str();
        return out;
    }

    // ---- compare ----------------------------------------------------
    std::ostringstream os;
    bool bad = false;
    bad |= diff(os, "primaryViolations", st.primaryViolations(),
                res.primaryViolations);
    bad |= diff(os, "secondaryViolations", st.secondaryViolations(),
                res.secondaryViolations);
    bad |= diff(os, "squashes", st.squashes(), res.squashes);
    bad |= diff(os, "subthreadsStarted", st.subthreadsStarted(),
                res.subthreadsStarted);
    bad |= diff(os, "overflowEvents", st.overflowEvents(),
                res.overflowEvents);
    bad |= diff(os, "epochs", std::uint64_t{cfg.epochs}, res.epochs);
    bad |= diff(os, "recordsReplayed", exec_steps, res.recordsReplayed);
    bad |= diff(os, "latchWaits", std::uint64_t{0}, res.latchWaits);

    bool commit_same = st.commitCount() == res.commitOrder.size();
    for (unsigned i = 0; commit_same && i < st.commitCount(); ++i)
        commit_same = st.commitAt(i) == res.commitOrder[i];
    if (!commit_same) {
        os << "commitOrder differs; ";
        bad = true;
    }

    // The machine reports violated lines in its own line numbering.
    const unsigned line_bytes = mcfg.mem.lineBytes;
    Addr base = region.synthetic();
    std::vector<Addr> want_lines;
    for (std::size_t i = 0; i < st.violatedLineCount(); ++i)
        want_lines.push_back(
            (base + st.violatedLineAt(i) * kLineStrideWords * 8) /
            line_bytes);
    if (want_lines != res.violatedLines) {
        os << "violatedLines differ; ";
        bad = true;
    }

    if (recorder.events().size() != st.eventCount()) {
        os << "event count: model " << st.eventCount() << ", machine "
           << recorder.events().size() << "; ";
        bad = true;
    } else {
        for (std::size_t i = 0; i < st.eventCount(); ++i) {
            if (!(st.event(i) == recorder.events()[i])) {
                os << "event " << i << ": model "
                   << eventToString(st.event(i)) << ", machine "
                   << eventToString(recorder.events()[i]) << "; ";
                bad = true;
                break;
            }
        }
    }

    if (bad) {
        out.detail = os.str();
        return out;
    }
    out.ok = true;
    return out;
}

BisimSweep
sampleBisim(const ModelConfig &cfg, unsigned samples,
            std::uint64_t seed, unsigned program_len)
{
    BisimSweep sweep;
    Rng rng(seed);
    for (unsigned i = 0; i < samples; ++i) {
        auto programs = samplePrograms(cfg, program_len, rng);
        auto schedule = randomSchedule(cfg, programs, rng);
        BisimOutcome out = replaySchedule(cfg, programs, schedule);
        ++sweep.samples;
        sweep.modelSteps += out.modelSteps;
        sweep.auditChecks += out.auditChecks;
        if (!out.ok) {
            ++sweep.failures;
            if (sweep.firstFailure.empty()) {
                std::ostringstream os;
                os << "sample " << i << ": " << out.detail;
                sweep.firstFailure = os.str();
            }
        }
    }
    return sweep;
}

} // namespace mc
} // namespace verify
} // namespace tlsim
