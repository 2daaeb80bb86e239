/**
 * @file
 * Reproduces Table 2 of the paper: per-benchmark workload statistics
 * (sequential execution time, speculative coverage, thread size,
 * speculative instructions per thread, threads per transaction).
 *
 * Paper reference values (absolute instruction counts depend on the
 * BerkeleyDB cost model; the shape is what must match):
 *   NEW ORDER      62 Mcyc  78%   ~62k insts  ~35k spec   9.7 thr/txn
 *   NEW ORDER 150            ~97%  ~61k        ~35k       99.6
 *   DELIVERY                 63%   ~33k                   ~10
 *   DELIVERY OUTER           99%   ~490k       ~327k      ~10
 *   STOCK LEVEL              ~76%  ~7.5k                  ~20
 *   PAYMENT        26 Mcyc   3%    ~52k        ~32k       2.0
 *   ORDER STATUS             38%   ~8k         ~4k        2.7
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "base/log.h"
#include "bench/benchutil.h"
#include "core/resulthash.h"
#include "sim/report.h"

using namespace tlsim;

int
main(int argc, char **argv)
{
    bench::BenchSession session("bench_table2_stats", argc, argv);
    bench::BenchArgs &args = session.args;
    sim::SimExecutor &ex = session.ex;
    bench::BenchReport &report = session.report;

    const auto &benches = tpcc::allBenchmarks();

    // Serial capture phase (one batch: a cold run loads one database),
    // then one row per benchmark across --jobs workers. Rows land in
    // index-assigned slots, so the table is identical for any job
    // count.
    std::vector<sim::ExperimentConfig> cfgs;
    for (tpcc::TxnType type : benches)
        cfgs.push_back(bench::configFor(type, args));
    std::vector<sim::SharedTraces> traces =
        bench::captureAll(benches, cfgs, args, ex);
    report.probeCaptures(traces);

    std::vector<sim::Table2Row> rows(benches.size());
    ex.parallelFor(rows.size(), [&](std::size_t i) {
        rows[i] = sim::table2Row(benches[i], cfgs[i], *traces[i]);
    });
    if (report.probe().enabled()) {
        std::vector<std::uint64_t> digests;
        for (const sim::Table2Row &r : rows) {
            det::Hash h;
            h.str(tpcc::txnTypeName(r.type));
            h.f64(r.execMcycles);
            h.f64(r.coverage);
            h.f64(r.threadSizeInsts);
            h.f64(r.specInstsPerThread);
            h.f64(r.threadsPerTxn);
            h.u64(r.epochs);
            digests.push_back(h.value());
        }
        report.probe().stageItems("replay", digests);
    }

    sim::printTable2(std::cout, rows);
    for (const auto &r : rows) {
        report.addSimulatedCycles(r.execMcycles * 1e6);
        report.add(tpcc::txnTypeName(r.type),
                   {{"exec_mcycles", r.execMcycles},
                    {"coverage", r.coverage},
                    {"thread_size_insts", r.threadSizeInsts},
                    {"spec_insts_per_thread", r.specInstsPerThread},
                    {"threads_per_txn", r.threadsPerTxn},
                    {"epochs", static_cast<double>(r.epochs)}});
    }
    return session.finish();
}
