/**
 * @file
 * Reproduces Figure 6 of the paper: performance of the five
 * loop-parallelized benchmarks while varying the number of sub-thread
 * contexts per thread (2, 4, 8) and the spacing between sub-thread
 * start points (speculative instructions per sub-thread).
 *
 * The BASELINE point is 8 sub-threads at 5,000 instructions. Shape
 * targets from the paper's Section 5.1: more sub-threads never hurt
 * (the extra contexts either widen coverage or increase checkpoint
 * density), very large sub-threads forfeit the benefit, and
 * DELIVERY OUTER shows the early-dependence re-timing effect that
 * small sub-threads unlock.
 *
 * With --prune=oracle the critical-path analyzer (core/critpath)
 * scores every grid point analytically from one dependence graph per
 * benchmark, and only the predicted frontier is simulated: the
 * BASELINE (which also calibrates the analyzer's scale), the
 * predicted-best spacing per sub-thread count, and the large-spacing
 * edge per count. Pruned points report the calibrated predicted
 * makespan ("simulated": 0 in the JSON rows); the "critpath" report
 * block carries the observed band error and the pruning ratio (at
 * least 2x fewer timing simulations, enforced by
 * tools/check_bench_json.py).
 *
 * With --placement=risk both the simulated machine and the analyzer
 * place sub-thread start points at predicted exposed-load risk
 * records instead of fixed spacing (TlsConfig::riskPlacement).
 *
 * This program is the Figure 6 front end. Each benchmark is captured
 * once (or reloaded from --trace-cache) in a serial capture phase.
 * All (benchmark x {sequential reference, sweep point}) simulation
 * points then fan out across --jobs workers, through sim::runBar and
 * sim::runSweepPoint, so --audit reaches every simulated point.
 * Results fill index-assigned slots, so the report is bit-identical
 * for any job count.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/critpath/analyzer.h"
#include "core/resulthash.h"
#include "core/critpath/graph.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_figure6_sweep", argc, argv);
    bench::BenchArgs &args = session.args;
    sim::SimExecutor &ex = session.ex;
    bench::BenchReport &report = session.report;

    const std::vector<unsigned> counts = {2, 4, 8};
    const std::vector<std::uint64_t> spacings = {1000,  2500,  5000,
                                                 10000, 25000, 50000};
    const std::size_t grid = counts.size() * spacings.size();
    const bool oracle = args.prune == "oracle";
    const critpath::Placement placement =
        args.placement == "risk" ? critpath::Placement::Risk
                                 : critpath::Placement::Fixed;
    // The calibration/frontier anchor: BASELINE = 8 x 5000.
    const std::size_t base_pt = 2 * spacings.size() + 2;

    const std::vector<tpcc::TxnType> sweep_benchmarks = {
        tpcc::TxnType::NewOrder, tpcc::TxnType::NewOrder150,
        tpcc::TxnType::Delivery, tpcc::TxnType::DeliveryOuter,
        tpcc::TxnType::StockLevel,
    };

    // Serial capture phase (each benchmark exactly once, through the
    // trace cache when --trace-cache is given).
    std::vector<sim::ExperimentConfig> cfgs;
    std::vector<sim::SharedTraces> traces;
    for (tpcc::TxnType type : sweep_benchmarks) {
        std::fprintf(stderr, "capturing %s...\n",
                     tpcc::txnTypeName(type));
        cfgs.push_back(bench::configFor(type, args));
        traces.push_back(bench::capture(type, cfgs.back(), args));
    }
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> caps;
        for (const sim::SharedTraces &t : traces) {
            det::Hash h;
            h.u64(det::hashWorkloadTrace(t->original));
            h.u64(det::hashWorkloadTrace(t->tls));
            caps.push_back(h.value());
        }
        report.probe().stageItems("capture", caps);
    }

    // Oracle phase: one dependence graph per benchmark scores the
    // whole grid analytically; the frontier keeps the BASELINE, the
    // predicted-best spacing per count, and the large-spacing edge
    // per count (the paper's "very large sub-threads forfeit the
    // benefit" endpoint), so the published shape is still anchored by
    // real simulations at its extremes.
    std::vector<std::vector<critpath::Prediction>> preds(
        sweep_benchmarks.size());
    std::vector<std::vector<char>> simulate(sweep_benchmarks.size());
    for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b)
        simulate[b].assign(grid, 1);
    if (oracle) {
        for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b) {
            critpath::DepGraph g(traces[b]->tls, *traces[b]->tlsIndex,
                                 cfgs[b].machine);
            critpath::Analyzer an(g);
            preds[b].resize(grid);
            for (std::size_t j = 0; j < grid; ++j) {
                critpath::AnalyzerConfig ac;
                ac.subthreads = counts[j / spacings.size()];
                ac.spacing = spacings[j % spacings.size()];
                ac.placement = placement;
                ac.warmupTxns = cfgs[b].warmupTxns;
                preds[b][j] = an.predict(ac);
            }
            simulate[b].assign(grid, 0);
            simulate[b][base_pt] = 1;
            for (std::size_t ci = 0; ci < counts.size(); ++ci) {
                std::size_t best = ci * spacings.size();
                for (std::size_t si = 1; si < spacings.size(); ++si) {
                    const std::size_t j = ci * spacings.size() + si;
                    if (preds[b][j].makespan <
                        preds[b][best].makespan)
                        best = j;
                }
                simulate[b][best] = 1;
                simulate[b][(ci + 1) * spacings.size() - 1] = 1;
            }
        }
    }

    // Parallel phase: per benchmark, the SEQUENTIAL reference plus
    // the (possibly pruned) counts x spacings sweep points.
    const std::size_t per_bench = 1 + grid;
    std::vector<RunResult> seqs(sweep_benchmarks.size());
    std::vector<std::vector<sim::SweepPoint>> points(
        sweep_benchmarks.size());
    for (auto &p : points)
        p.resize(grid);

    // The captures above built exactly one pre-analysis per trace;
    // every sweep point (and the oracle's dependence graphs) must
    // reuse those, so no run in the parallel phase may trigger
    // another analysis pass.
    const std::uint64_t builds_before = TraceIndex::builds();

    ex.parallelFor(sweep_benchmarks.size() * per_bench,
                   [&](std::size_t i) {
        std::size_t b = i / per_bench;
        std::size_t j = i % per_bench;
        if (j == 0) {
            seqs[b] = sim::runBar(sim::Bar::Sequential, *traces[b],
                                  cfgs[b]);
            return;
        }
        --j;
        unsigned k = counts[j / spacings.size()];
        std::uint64_t s = spacings[j % spacings.size()];
        points[b][j].subthreads = k;
        points[b][j].spacing = s;
        if (!simulate[b][j])
            return; // pruned: filled from the prediction below
        points[b][j].run = sim::runSweepPoint(k, s, *traces[b], cfgs[b]);
    });

    const std::uint64_t sweep_builds =
        TraceIndex::builds() - builds_before;
    if (sweep_builds != 0)
        fatal("trace pre-analysis ran %llu times during the sweep; "
              "each capture's index must be shared across all points",
              static_cast<unsigned long long>(sweep_builds));
    report.add("index_builds/sweep-phase",
               {{"builds", static_cast<double>(sweep_builds)}});

    // Replay digests are taken before the oracle fills pruned points
    // with predictions: only genuinely simulated results count.
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> digests;
        for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b) {
            digests.push_back(det::hashRunResult(seqs[b]));
            for (std::size_t j = 0; j < grid; ++j)
                if (simulate[b][j])
                    digests.push_back(
                        det::hashRunResult(points[b][j].run));
        }
        report.probe().stageItems("replay", digests);
    }

    // Calibrate the analyzer per benchmark on the BASELINE point and
    // fill the pruned points with the calibrated prediction; the band
    // error is the worst disagreement on frontier points that were
    // both predicted and simulated (the BASELINE itself matches by
    // construction).
    double cp_predicted = 0;
    double cp_band = 0;
    std::size_t cp_simulated = 0;
    if (oracle) {
        for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b) {
            const double calib =
                static_cast<double>(points[b][base_pt].run.makespan) /
                static_cast<double>(preds[b][base_pt].makespan);
            for (std::size_t j = 0; j < grid; ++j) {
                const double est =
                    calib *
                    static_cast<double>(preds[b][j].makespan);
                cp_predicted += est;
                if (!simulate[b][j]) {
                    points[b][j].run.makespan =
                        static_cast<Cycle>(std::llround(est));
                    continue;
                }
                ++cp_simulated;
                const double sim_ms =
                    static_cast<double>(points[b][j].run.makespan);
                if (j != base_pt && sim_ms > 0)
                    cp_band = std::max(
                        cp_band, std::abs(est - sim_ms) / sim_ms);
            }
        }
        report.setCritpath(
            cp_predicted, cp_band,
            static_cast<double>(grid * sweep_benchmarks.size()),
            static_cast<double>(cp_simulated));
        std::printf("oracle pruning: simulated %zu of %zu grid points "
                    "(band error %.1f%%, placement %s)\n\n",
                    cp_simulated, grid * sweep_benchmarks.size(),
                    cp_band * 100.0,
                    critpath::placementName(placement));
    }

    for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b) {
        const char *name = tpcc::txnTypeName(sweep_benchmarks[b]);
        sim::printFigure6(std::cout, name, points[b],
                          seqs[b].makespan);
        report.addSimulatedCycles(
            static_cast<double>(seqs[b].makespan));
        report.addReplayRecords(
            static_cast<double>(seqs[b].recordsReplayed));
        report.addAuditChecks(
            static_cast<double>(seqs[b].auditChecks));
        report.add(std::string(name) + "/SEQUENTIAL",
                   {{"makespan",
                     static_cast<double>(seqs[b].makespan)}});
        for (std::size_t j = 0; j < grid; ++j) {
            const auto &p = points[b][j];
            const bool simulated = simulate[b][j] != 0;
            if (simulated) {
                report.addSimulatedCycles(
                    static_cast<double>(p.run.makespan));
                report.addReplayRecords(
                    static_cast<double>(p.run.recordsReplayed));
                report.addAuditChecks(
                    static_cast<double>(p.run.auditChecks));
            }
            bench::BenchReport::Fields fields = {
                {"makespan", static_cast<double>(p.run.makespan)},
                {"speedup", p.run.makespan
                                ? static_cast<double>(seqs[b].makespan) /
                                      static_cast<double>(p.run.makespan)
                                : 0.0}};
            if (oracle)
                fields.emplace_back("simulated", simulated ? 1.0 : 0.0);
            report.add(
                strfmt("%s/k%u/s%llu", name, p.subthreads,
                       static_cast<unsigned long long>(p.spacing)),
                std::move(fields));
        }
    }
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> agg;
        for (std::size_t b = 0; b < sweep_benchmarks.size(); ++b) {
            det::Hash h;
            h.str(tpcc::txnTypeName(sweep_benchmarks[b]));
            h.u64(seqs[b].makespan);
            for (std::size_t j = 0; j < grid; ++j) {
                h.u64(points[b][j].subthreads);
                h.u64(points[b][j].spacing);
                h.u64(points[b][j].run.makespan);
            }
            agg.push_back(h.value());
        }
        report.probe().stageItems("aggregate", agg);
    }
    return session.finish();
}
