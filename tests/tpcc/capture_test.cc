#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "sim/experiment.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {
namespace {

CaptureOptions
tinyOpts(bool tls)
{
    CaptureOptions o;
    o.scale = TpccConfig::tiny();
    o.txns = 4;
    o.tlsBuild = tls;
    o.parallelMode = tls;
    return o;
}

TEST(Capture, SequentialCaptureHasNoParallelSections)
{
    WorkloadTrace w =
        captureBenchmark(TxnType::NewOrder, tinyOpts(false));
    ASSERT_EQ(w.txns.size(), 4u);
    for (const auto &txn : w.txns) {
        EXPECT_EQ(txn.epochCount(), 0u);
        EXPECT_EQ(txn.coverage(), 0.0);
        EXPECT_GT(txn.totalInsts(), 1000u);
    }
}

TEST(Capture, TlsCaptureSplitsTheOrderLineLoop)
{
    WorkloadTrace w =
        captureBenchmark(TxnType::NewOrder, tinyOpts(true));
    ASSERT_EQ(w.txns.size(), 4u);
    unsigned with_loop = 0;
    for (const auto &txn : w.txns) {
        if (txn.epochCount() == 0)
            continue; // a rollback transaction may abort early
        ++with_loop;
        EXPECT_GE(txn.epochsPerLoop(), 4.0); // 5-15 lines
        EXPECT_LE(txn.epochsPerLoop(), 15.0);
        EXPECT_GT(txn.coverage(), 0.4);
        EXPECT_GT(txn.meanEpochInsts(), 5000u);
    }
    EXPECT_GE(with_loop, 3u);
}

TEST(Capture, NewOrder150HasTenTimesTheEpochs)
{
    WorkloadTrace small =
        captureBenchmark(TxnType::NewOrder, tinyOpts(true));
    WorkloadTrace large =
        captureBenchmark(TxnType::NewOrder150, tinyOpts(true));
    double small_epochs = 0, large_epochs = 0;
    for (const auto &t : small.txns)
        small_epochs += t.epochCount();
    for (const auto &t : large.txns)
        large_epochs += t.epochCount();
    EXPECT_GT(large_epochs, small_epochs * 5);
}

TEST(Capture, DeliveryVariantsDifferInThreadSize)
{
    WorkloadTrace inner =
        captureBenchmark(TxnType::Delivery, tinyOpts(true));
    WorkloadTrace outer =
        captureBenchmark(TxnType::DeliveryOuter, tinyOpts(true));

    double inner_size = 0, outer_size = 0;
    unsigned n_inner = 0, n_outer = 0;
    for (const auto &t : inner.txns) {
        if (t.epochCount()) {
            inner_size += t.meanEpochInsts();
            ++n_inner;
        }
    }
    for (const auto &t : outer.txns) {
        if (t.epochCount()) {
            outer_size += t.meanEpochInsts();
            ++n_outer;
        }
    }
    ASSERT_GT(n_inner, 0u);
    ASSERT_GT(n_outer, 0u);
    // The outer decomposition's threads are roughly an order of
    // magnitude larger (a whole district vs one order line).
    EXPECT_GT(outer_size / n_outer, 5 * inner_size / n_inner);

    // And its coverage is much higher (paper: 63% vs 99%).
    EXPECT_GT(outer.txns[0].coverage(), 0.9);
}

TEST(Capture, PaymentCoverageIsTiny)
{
    WorkloadTrace w =
        captureBenchmark(TxnType::Payment, tinyOpts(true));
    double cov = 0;
    for (const auto &t : w.txns)
        cov = std::max(cov, t.coverage());
    EXPECT_LT(cov, 0.30);
}

TEST(Capture, StockLevelEpochsAreSmallAndMany)
{
    WorkloadTrace w =
        captureBenchmark(TxnType::StockLevel, tinyOpts(true));
    for (const auto &t : w.txns) {
        // One epoch per order line of the last 20 orders.
        ASSERT_GT(t.epochCount(), 20u);
        EXPECT_LE(t.epochsPerLoop(), 20.0 * 15.0);
        // The paper's smallest threads (~7.5k dynamic instructions).
        EXPECT_LT(t.meanEpochInsts(), 40000);
    }
}

TEST(Capture, IdenticalSeedsGiveIdenticalWorkloads)
{
    WorkloadTrace a =
        captureBenchmark(TxnType::NewOrder, tinyOpts(true));
    WorkloadTrace b =
        captureBenchmark(TxnType::NewOrder, tinyOpts(true));
    ASSERT_EQ(a.txns.size(), b.txns.size());
    for (std::size_t i = 0; i < a.txns.size(); ++i) {
        EXPECT_EQ(a.txns[i].totalInsts(), b.txns[i].totalInsts());
        EXPECT_EQ(a.txns[i].epochCount(), b.txns[i].epochCount());
    }
}

TEST(Capture, EscapedWorkOnlyInTlsBuild)
{
    WorkloadTrace seq =
        captureBenchmark(TxnType::NewOrder, tinyOpts(false));
    bool seq_has_latches = false;
    for (const auto &txn : seq.txns)
        for (const auto &sec : txn.sections)
            for (const auto &e : sec.epochs)
                for (const auto &r : e.records)
                    seq_has_latches |=
                        r.op == TraceOp::LatchAcquire;
    // The original build uses spin latches (plain loads/stores), so no
    // escaped latch records appear.
    EXPECT_FALSE(seq_has_latches);

    WorkloadTrace tls =
        captureBenchmark(TxnType::NewOrder, tinyOpts(true));
    bool tls_has_latches = false;
    for (const auto &txn : tls.txns)
        for (const auto &sec : txn.sections)
            for (const auto &e : sec.epochs)
                for (const auto &r : e.records)
                    tls_has_latches |=
                        r.op == TraceOp::LatchAcquire;
    EXPECT_TRUE(tls_has_latches);
}

// ---------------------------------------------------------------------
// Image-backed captures
// ---------------------------------------------------------------------

/** captureBenchmark's transaction loop, on a database built by the
 *  caller (so the database can be inspected afterwards). */
WorkloadTrace
runCapture(TpccDb &tdb, Tracer &tracer, TxnType type,
           const CaptureOptions &o)
{
    InputGen gen(o.scale, o.inputSeed);
    for (unsigned i = 0; i < o.txns; ++i) {
        tracer.txnBegin();
        tdb.runTransaction(type, gen, (i % o.scale.districts) + 1);
        tracer.txnEnd();
    }
    return tracer.takeWorkload();
}

Tracer::Options
tracerOpts(const CaptureOptions &o)
{
    Tracer::Options t;
    t.parallelMode = o.parallelMode;
    t.spawnOverheadInsts = o.spawnOverheadInsts;
    return t;
}

db::DbConfig
dbConfig(bool tuned)
{
    db::DbConfig c;
    c.tuned = tuned;
    return c;
}

/** The first difference between two captures in anything but the
 *  heap address of a Load/Store record; "" when there is none. */
std::string
traceDiff(const WorkloadTrace &a, const WorkloadTrace &b)
{
    if (a.txns.size() != b.txns.size())
        return "transaction count";
    for (std::size_t t = 0; t < a.txns.size(); ++t) {
        const auto &sa = a.txns[t].sections, &sb = b.txns[t].sections;
        if (sa.size() != sb.size())
            return "section count, txn " + std::to_string(t);
        for (std::size_t s = 0; s < sa.size(); ++s) {
            std::string at = "txn " + std::to_string(t) + " section " +
                             std::to_string(s);
            if (sa[s].parallel != sb[s].parallel ||
                sa[s].epochs.size() != sb[s].epochs.size())
                return at + ": kind or epoch count";
            for (std::size_t e = 0; e < sa[s].epochs.size(); ++e) {
                const EpochTrace &ea = sa[s].epochs[e];
                const EpochTrace &eb = sb[s].epochs[e];
                std::string ep = at + " epoch " + std::to_string(e);
                if (ea.instCount != eb.instCount ||
                    ea.specInstCount != eb.specInstCount ||
                    ea.escapeSpans != eb.escapeSpans)
                    return ep + ": instruction counts or escapes";
                if (ea.records.size() != eb.records.size())
                    return ep + ": record count";
                for (std::size_t r = 0; r < ea.records.size(); ++r) {
                    const TraceRecord &x = ea.records[r];
                    const TraceRecord &y = eb.records[r];
                    bool mem = x.op == TraceOp::Load ||
                               x.op == TraceOp::Store;
                    if (x.op != y.op || x.size != y.size ||
                        x.aux != y.aux || x.pc != y.pc ||
                        (!mem && x.addr != y.addr))
                        return ep + " record " + std::to_string(r);
                }
            }
        }
    }
    return "";
}

/** Every page, table size and consistency condition of two databases
 *  agree. */
void
expectSameDatabase(TpccDb &a, TpccDb &b, const std::string &what)
{
    db::Database &da = a.database(), &dbb = b.database();
    ASSERT_EQ(da.pool().pagesAllocated(), dbb.pool().pagesAllocated())
        << what;
    for (db::PageId pid = 1; pid <= da.pool().pagesAllocated(); ++pid)
        ASSERT_EQ(std::memcmp(da.pool().frameAddr(pid),
                              dbb.pool().frameAddr(pid), db::kPageSize),
                  0)
            << what << ": page " << pid;
    ASSERT_EQ(da.tableCount(), dbb.tableCount()) << what;
    for (db::TableId t = 0; t < da.tableCount(); ++t)
        EXPECT_EQ(da.table(t).size(), dbb.table(t).size())
            << what << ": table " << da.table(t).name();
    a.checkConsistency();
    b.checkConsistency();
}

TEST(Capture, ImageBackedMatchesFreshLoad)
{
    CaptureOptions base = tinyOpts(false);
    std::shared_ptr<const DbImage> image =
        DbImage::load(base.scale, base.loadSeed);
    for (TxnType type : allBenchmarks()) {
        for (bool tls : {false, true}) {
            CaptureOptions o = tinyOpts(tls);
            std::string what = std::string(txnTypeName(type)) +
                               (tls ? " TLS" : " original");

            Tracer fresh_tr(tracerOpts(o));
            TpccDb fresh(o.scale, dbConfig(tls), fresh_tr);
            fresh.load(o.loadSeed);
            WorkloadTrace want = runCapture(fresh, fresh_tr, type, o);

            Tracer copy_tr(tracerOpts(o));
            TpccDb copy(image, dbConfig(tls), copy_tr);
            WorkloadTrace got = runCapture(copy, copy_tr, type, o);

            EXPECT_EQ(traceDiff(want, got), "") << what;
            EXPECT_EQ(traceDiff(want, captureBenchmark(type, o, image)),
                      "")
                << what << " (captureBenchmark)";
            expectSameDatabase(fresh, copy, what);
        }
    }
}

TEST(CaptureDeathTest, ImageMustMatchTheCapture)
{
    CaptureOptions o = tinyOpts(true);
    std::shared_ptr<const DbImage> image =
        DbImage::load(o.scale, o.loadSeed + 1);
    EXPECT_DEATH(captureBenchmark(TxnType::Payment, o, image),
                 "another scale or load seed");
}

/** The load is the same bytes in both builds: the premise that lets
 *  the original and the TLS capture share one image. */
void
expectTunedAndUntunedLoadsIdentical(const TpccConfig &scale)
{
    const std::uint64_t seed = 7;
    Tracer t1, t2;
    TpccDb untuned(scale, dbConfig(false), t1);
    untuned.load(seed);
    TpccDb tuned(scale, dbConfig(true), t2);
    tuned.load(seed);
    expectSameDatabase(untuned, tuned, "tuned vs untuned load");

    Tracer t3;
    TpccDb copy(DbImage::load(scale, seed), dbConfig(true), t3);
    expectSameDatabase(untuned, copy, "image vs fresh load");
    for (db::TableId t = 0; t < copy.database().tableCount(); ++t)
        EXPECT_EQ(copy.database().table(t).root(),
                  untuned.database().table(t).root());
}

TEST(DbImage, TunedAndUntunedLoadsAreIdentical)
{
    expectTunedAndUntunedLoadsIdentical(TpccConfig::tiny());
    expectTunedAndUntunedLoadsIdentical(
        sim::ExperimentConfig::paper(TxnType::NewOrder, true).scale);
}

} // namespace
} // namespace tpcc
} // namespace tlsim
