/**
 * @file
 * Quantifies the paper's mechanism illustrations (Figures 1, 2 and 4)
 * with planted-dependence micro-workloads, plus the design-choice
 * ablations called out in DESIGN.md:
 *
 *  F1  rewind scope: a late violation in a large thread rewinds the
 *      whole thread without sub-threads, one sub-thread with them;
 *  F2  dependence-removal tuning: removing an early dependence helps
 *      only when sub-threads bound the damage of the remaining late
 *      dependence;
 *  F4  selective secondary violations via the sub-thread start table;
 *  A1  victim cache on/off under speculative-state pressure;
 *  A2  periodic vs adaptive sub-thread spacing (Section 5.1).
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/machine.h"
#include "core/resulthash.h"
#include "core/site.h"
#include "core/tracer.h"

using namespace tlsim;

namespace {

// Micro-workloads replay in microseconds and share planted state, so
// they run serially regardless of --jobs; the flag is still accepted
// (and recorded in the JSON) for a uniform bench interface.
bench::BenchReport *g_report = nullptr;
std::string g_section;

// --det-probe digests, collected as each workload is built and each
// run lands, folded into probe stages at the end of main().
std::vector<std::uint64_t> g_captureDigests;
std::vector<std::uint64_t> g_replayDigests;

bool
probing()
{
    return g_report && g_report->probe().enabled();
}

class MicroBuilder
{
  public:
    MicroBuilder() : mem_(65536, 0)
    {
        pc_ = sitePc(SiteId::MicroSite);
    }

    void *addr(std::size_t w) { return &mem_.at(w); }
    Pc pc() const { return pc_; }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        Tracer t(o);
        TracedRegion region(t, mem_.data(), mem_.size() * sizeof(mem_[0]));
        t.txnBegin();
        t.loopBegin();
        for (const auto &body : bodies) {
            t.iterBegin();
            body(t);
        }
        t.loopEnd();
        t.txnEnd();
        WorkloadTrace w = t.takeWorkload();
        if (probing())
            g_captureDigests.push_back(det::hashWorkloadTrace(w));
        return w;
    }

  private:
    std::vector<std::uint64_t> mem_;
    Pc pc_;
};

MachineConfig
config(unsigned k, std::uint64_t spacing)
{
    MachineConfig cfg;
    cfg.tls.subthreadsPerThread = k;
    cfg.tls.subthreadSpacing = spacing;
    return cfg;
}

void
report(const char *label, const RunResult &r)
{
    std::printf("  %-34s makespan %9llu  failed %9llu  rewound-insts "
                "%9llu  violations %llu\n",
                label, static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(r.total[Cat::Failed]),
                static_cast<unsigned long long>(r.rewoundInsts),
                static_cast<unsigned long long>(r.primaryViolations +
                                                r.secondaryViolations));
    if (probing())
        g_replayDigests.push_back(det::hashRunResult(r));
    if (g_report) {
        g_report->addSimulatedCycles(static_cast<double>(r.makespan));
        g_report->addReplayRecords(
            static_cast<double>(r.recordsReplayed));
        g_report->addAuditChecks(static_cast<double>(r.auditChecks));
        g_report->add(
            g_section + "/" + label,
            {{"makespan", static_cast<double>(r.makespan)},
             {"failed_cycles",
              static_cast<double>(r.total[Cat::Failed])},
             {"rewound_insts", static_cast<double>(r.rewoundInsts)},
             {"violations",
              static_cast<double>(r.primaryViolations +
                                  r.secondaryViolations)}});
    }
}

// --- Figure 1: rewind scope ------------------------------------------

void
figure1()
{
    std::printf("=== Figure 1: sub-threads bound the rewind of a late "
                "violation ===\n");
    g_section = "figure1";
    MicroBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 60000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 50000); // long prefix of useful work
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 5000);
    };
    auto w = b.loopTxn({writer, reader});

    TlsMachine all_or_nothing(config(1, 5000));
    TlsMachine subthreads(config(8, 5000));
    report("all-or-nothing", all_or_nothing.run(w, ExecMode::Tls));
    report("8 sub-threads @5k", subthreads.run(w, ExecMode::Tls));
    std::printf("\n");
}

// --- Figure 2: tuning only pays off with sub-threads -----------------

void
figure2()
{
    std::printf("=== Figure 2: removing an early dependence helps only "
                "with sub-threads ===\n");
    MicroBuilder b;

    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 20000);
        t.store(b.pc(), b.addr(64), 8); // *p (early for the reader)
        t.compute(b.pc(), 30000);
        t.store(b.pc(), b.addr(128), 8); // *q (late)
    };
    auto readerBoth = [&b](Tracer &t) {
        t.compute(b.pc(), 5000);
        t.load(b.pc(), b.addr(64), 8); // depends on *p
        t.compute(b.pc(), 35000);
        t.load(b.pc(), b.addr(128), 8); // depends on *q
        t.compute(b.pc(), 5000);
    };
    auto readerQOnly = [&b](Tracer &t) {
        t.compute(b.pc(), 5000);
        t.load(b.pc(), b.addr(8192), 8); // *p dependence removed
        t.compute(b.pc(), 35000);
        t.load(b.pc(), b.addr(128), 8);
        t.compute(b.pc(), 5000);
    };

    auto both = b.loopTxn({writer, readerBoth});
    auto q_only = b.loopTxn({writer, readerQOnly});

    for (unsigned k : {1u, 8u}) {
        g_section = strfmt("figure2/k%u", k);
        TlsMachine m1(config(k, 5000));
        TlsMachine m2(config(k, 5000));
        RunResult r_both = m1.run(both, ExecMode::Tls);
        RunResult r_q = m2.run(q_only, ExecMode::Tls);
        std::printf(" k=%u:\n", k);
        report("both dependences", r_both);
        report("early dependence removed", r_q);
        double gain = r_both.makespan
                          ? 100.0 *
                                (static_cast<double>(r_both.makespan) -
                                 static_cast<double>(r_q.makespan)) /
                                static_cast<double>(r_both.makespan)
                          : 0;
        std::printf("  -> tuning gain: %.1f%%\n", gain);
    }
    std::printf("\n");
}

// --- Figure 4: selective secondary violations ------------------------

void
figure4()
{
    std::printf("=== Figure 4: start table makes secondary violations "
                "selective ===\n");
    g_section = "figure4";
    MicroBuilder b;
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 30000);
        t.store(b.pc(), b.addr(64), 8);
    };
    auto reader = [&b](Tracer &t) {
        t.compute(b.pc(), 25000);
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 5000);
    };
    auto bystander = [&b](Tracer &t) {
        for (int i = 0; i < 300; ++i) {
            t.compute(b.pc(), 90);
            t.load(b.pc(), b.addr(1024 + (i % 64)), 8);
        }
    };
    auto w = b.loopTxn({writer, reader, bystander, bystander});

    MachineConfig with_table = config(8, 1000);
    MachineConfig without_table = config(8, 1000);
    without_table.tls.useStartTable = false;

    TlsMachine m1(with_table), m2(without_table);
    report("with start table (Fig 4b)", m1.run(w, ExecMode::Tls));
    report("without start table (Fig 4a)", m2.run(w, ExecMode::Tls));
    std::printf("\n");
}

// --- Ablation: victim cache ------------------------------------------

void
ablationVictim()
{
    std::printf("=== Ablation: speculative victim cache under conflict "
                "pressure ===\n");
    MicroBuilder b;
    std::vector<std::function<void(Tracer &)>> bodies;
    for (int e = 0; e < 4; ++e) {
        bodies.push_back([&b, e](Tracer &t) {
            // Stores striding one L2 set (small L2 below).
            for (int i = 0; i < 48; ++i) {
                t.store(b.pc(), b.addr(2048 * e + i * 32), 8);
                t.compute(b.pc(), 120);
            }
        });
    }
    auto w = b.loopTxn(bodies);

    MachineConfig small = config(4, 2000);
    small.mem.l2Bytes = 8 * 4 * 32; // 8 sets
    MachineConfig no_victim = small;
    no_victim.tls.useVictimCache = false;

    TlsMachine m1(small), m2(no_victim);
    RunResult with_v = m1.run(w, ExecMode::Tls);
    RunResult without_v = m2.run(w, ExecMode::Tls);
    auto show = [](const char *label, const RunResult &r) {
        std::printf("  %-34s overflows %llu, makespan %llu\n", label,
                    static_cast<unsigned long long>(r.overflowEvents),
                    static_cast<unsigned long long>(r.makespan));
        if (probing())
            g_replayDigests.push_back(det::hashRunResult(r));
        if (g_report) {
            g_report->addSimulatedCycles(
                static_cast<double>(r.makespan));
            g_report->add(
                std::string("victim/") + label,
                {{"makespan", static_cast<double>(r.makespan)},
                 {"overflows",
                  static_cast<double>(r.overflowEvents)}});
        }
    };
    show("with 64-entry victim cache", with_v);
    show("without victim cache", without_v);
    std::printf("\n");
}

// --- Ablation: adaptive spacing (Section 5.1) ------------------------

void
ablationAdaptive()
{
    std::printf("=== Ablation: periodic vs adaptive sub-thread spacing "
                "===\n");
    g_section = "adaptive";
    MicroBuilder b;
    // A thread far larger than the fixed spacing covers: 8 contexts at
    // 5k instructions protect only the first 40k of a 155k-instruction
    // thread, so a violation at 150k rewinds ~110k instructions.
    // Adaptive spacing (size/k ~ 19k) keeps a checkpoint within ~19k
    // of any point.
    auto big_epoch = [&b](Tracer &t) {
        t.compute(b.pc(), 150000);
        t.load(b.pc(), b.addr(64), 8);
        t.compute(b.pc(), 5000);
    };
    auto writer = [&b](Tracer &t) {
        t.compute(b.pc(), 700000); // stores well after the load above
        t.store(b.pc(), b.addr(64), 8);
    };
    auto w = b.loopTxn({writer, big_epoch});

    MachineConfig periodic = config(8, 5000);
    MachineConfig adaptive = config(8, 5000);
    adaptive.tls.adaptiveSpacing = true;

    TlsMachine m1(periodic), m2(adaptive);
    report("periodic every 5k insts", m1.run(w, ExecMode::Tls));
    report("adaptive (size/k)", m2.run(w, ExecMode::Tls));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_mechanism_micro",
                                bench::parseArgs(argc, argv));
    g_report = &session.report;
    figure1();
    figure2();
    figure4();
    ablationVictim();
    ablationAdaptive();
    if (probing()) {
        session.report.probe().stageItems("capture", g_captureDigests);
        session.report.probe().stageItems("replay", g_replayDigests);
    }
    return session.finish();
}
