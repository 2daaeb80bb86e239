#include <gtest/gtest.h>

#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {
namespace {

struct TxnFixture : public ::testing::Test
{
    TxnFixture()
        : cfg(TpccConfig::tiny()), tdb(cfg, db::DbConfig{}, tracer),
          gen(cfg, 42)
    {
        tdb.load(7);
    }

    TpccConfig cfg;
    Tracer tracer;
    TpccDb tdb;
    InputGen gen;
};

TEST_F(TxnFixture, NewOrderAdvancesDistrictAndInsertsRows)
{
    std::uint64_t orders_before = tdb.orderCount();
    std::uint64_t new_orders_before = tdb.newOrderCount();

    // Draw inputs until we get a non-rollback transaction.
    NewOrderInput in = gen.newOrder(false);
    while (in.rollback)
        in = gen.newOrder(false);
    std::uint32_t next_before = tdb.districtNextOrderId(in.d_id);

    InputGen replay(cfg, 42);
    // Re-create the same stream state: easier to call the public
    // dispatch with a fresh generator whose next draw equals `in`.
    (void)replay;
    // Run directly through the dispatcher using a generator primed to
    // produce `in` is impractical; instead run one transaction and
    // check global effects.
    Tracer tr2;
    TpccDb fresh(cfg, db::DbConfig{}, tr2);
    fresh.load(7);
    InputGen g2(cfg, 1234);
    std::uint64_t before = fresh.orderCount();
    fresh.runTransaction(TxnType::NewOrder, g2);
    // Either committed (one more order) or rolled back (unchanged).
    std::uint64_t after = fresh.orderCount();
    EXPECT_TRUE(after == before + 1 ||
                (after == before && fresh.rollbacks() == 1));
    fresh.checkConsistency();

    (void)orders_before;
    (void)new_orders_before;
    (void)next_before;
}

TEST_F(TxnFixture, NewOrderCommitEffects)
{
    // Find a seed whose first NEW ORDER does not roll back.
    std::uint64_t seed = 1;
    for (;; ++seed) {
        InputGen probe(cfg, seed);
        if (!probe.newOrder(false).rollback)
            break;
    }
    InputGen g(cfg, seed);
    InputGen peek(cfg, seed);
    NewOrderInput in = peek.newOrder(false);

    std::uint32_t next_before = tdb.districtNextOrderId(in.d_id);
    tdb.runTransaction(TxnType::NewOrder, g);
    EXPECT_EQ(tdb.districtNextOrderId(in.d_id), next_before + 1);

    // The order and its lines exist.
    auto &db = tdb.database();
    const auto &t = tdb.tables();
    db::Bytes buf;
    ASSERT_TRUE(db.table(t.order).get(
        TpccDb::kOrder(in.d_id, next_before), &buf));
    auto o = fromBytes<OrderRow>(buf);
    EXPECT_EQ(o.ol_cnt, in.lines.size());
    for (std::uint32_t ol = 1; ol <= o.ol_cnt; ++ol)
        EXPECT_TRUE(db.table(t.orderLine)
                        .get(TpccDb::kOrderLine(in.d_id, next_before,
                                                ol),
                             &buf));
    tdb.checkConsistency();
}

TEST_F(TxnFixture, NewOrderRollbackLeavesNoTrace)
{
    // Find a seed whose first NEW ORDER rolls back.
    std::uint64_t seed = 1;
    for (;; ++seed) {
        InputGen probe(cfg, seed);
        if (probe.newOrder(false).rollback)
            break;
    }
    InputGen peek(cfg, seed);
    NewOrderInput in = peek.newOrder(false);

    std::uint64_t orders = tdb.orderCount();
    std::uint64_t new_orders = tdb.newOrderCount();
    std::uint32_t next = tdb.districtNextOrderId(in.d_id);

    InputGen g(cfg, seed);
    tdb.runTransaction(TxnType::NewOrder, g);

    EXPECT_EQ(tdb.rollbacks(), 1u);
    EXPECT_EQ(tdb.orderCount(), orders);
    EXPECT_EQ(tdb.newOrderCount(), new_orders);
    EXPECT_EQ(tdb.districtNextOrderId(in.d_id), next);
    tdb.checkConsistency();
}

TEST_F(TxnFixture, PaymentUpdatesBalances)
{
    InputGen peek(cfg, 42);
    PaymentInput in = peek.payment();

    tdb.runTransaction(TxnType::Payment, gen);

    auto &db = tdb.database();
    const auto &t = tdb.tables();
    db::Bytes buf;
    ASSERT_TRUE(db.table(t.warehouse).get(TpccDb::kWarehouse(), &buf));
    auto w = fromBytes<WarehouseRow>(buf);
    EXPECT_NEAR(w.ytd, 300000.0 + in.amount, 1e-6);

    ASSERT_TRUE(
        db.table(t.district).get(TpccDb::kDistrict(in.d_id), &buf));
    auto d = fromBytes<DistrictRow>(buf);
    EXPECT_NEAR(d.ytd, 30000.0 + in.amount, 1e-6);

    // One history row appended.
    EXPECT_EQ(db.table(t.history).size(),
              cfg.districts * cfg.customersPerDistrict + 1);
}

TEST_F(TxnFixture, DeliveryConsumesNewOrdersAndCreditsCustomers)
{
    std::uint64_t pending = tdb.newOrderCount();
    ASSERT_GE(pending, cfg.districts);
    tdb.runTransaction(TxnType::Delivery, gen);
    EXPECT_EQ(tdb.newOrderCount(), pending - cfg.districts);
    tdb.checkConsistency();

    // Delivered orders got a carrier.
    auto &db = tdb.database();
    const auto &t = tdb.tables();
    db::Bytes buf;
    ASSERT_TRUE(db.table(t.order).get(
        TpccDb::kOrder(1, cfg.firstNewOrder), &buf));
    auto o = fromBytes<OrderRow>(buf);
    EXPECT_GE(o.carrier_id, 1u);

    // The customer of that order was credited with the line sum.
    double sum = 0;
    for (std::uint32_t ol = 1; ol <= o.ol_cnt; ++ol) {
        ASSERT_TRUE(db.table(t.orderLine)
                        .get(TpccDb::kOrderLine(1, cfg.firstNewOrder,
                                                ol),
                             &buf));
        auto lr = fromBytes<OrderLineRow>(buf);
        sum += lr.amount;
        EXPECT_NE(lr.delivery_d, 0u); // stamped as delivered
    }
    EXPECT_NEAR(tdb.customerBalance(1, o.c_id), -10.0 + sum, 1e-6);
}

TEST_F(TxnFixture, DeliveryOuterVariantHasSameEffects)
{
    Tracer tr2;
    TpccDb a(cfg, db::DbConfig{}, tr2);
    a.load(7);
    Tracer tr3;
    TpccDb b(cfg, db::DbConfig{}, tr3);
    b.load(7);

    InputGen ga(cfg, 42), gb(cfg, 42);
    a.runTransaction(TxnType::Delivery, ga);
    b.runTransaction(TxnType::DeliveryOuter, gb);

    EXPECT_EQ(a.newOrderCount(), b.newOrderCount());
    for (std::uint32_t d = 1; d <= cfg.districts; ++d)
        EXPECT_EQ(a.districtNextOrderId(d), b.districtNextOrderId(d));
    // Spot-check a credited customer matches across variants.
    db::Bytes buf;
    ASSERT_TRUE(a.database().table(a.tables().order).get(
        TpccDb::kOrder(1, cfg.firstNewOrder), &buf));
    auto o = fromBytes<OrderRow>(buf);
    EXPECT_DOUBLE_EQ(a.customerBalance(1, o.c_id),
                     b.customerBalance(1, o.c_id));
}

TEST_F(TxnFixture, StockLevelCountsLowStockItems)
{
    tdb.runTransaction(TxnType::StockLevel, gen, 1);
    std::uint32_t count = tdb.lastStockLevelResult();
    // Initial stock is 10..100 and thresholds are 10..20: typically a
    // small but possibly zero count. Just bound it sanely.
    EXPECT_LE(count, 200u * 15u);
    tdb.checkConsistency(); // read-only transaction
}

TEST_F(TxnFixture, OrderStatusIsReadOnly)
{
    std::uint64_t orders = tdb.orderCount();
    std::uint64_t new_orders = tdb.newOrderCount();
    tdb.runTransaction(TxnType::OrderStatus, gen);
    EXPECT_EQ(tdb.orderCount(), orders);
    EXPECT_EQ(tdb.newOrderCount(), new_orders);
    tdb.checkConsistency();
}

TEST_F(TxnFixture, MixedStreamKeepsConsistency)
{
    for (int i = 0; i < 12; ++i) {
        for (TxnType t : allBenchmarks())
            tdb.runTransaction(t, gen, (i % cfg.districts) + 1);
    }
    tdb.checkConsistency();
    auto &db = tdb.database();
    for (std::size_t t = 0; t < db.tableCount(); ++t)
        db.table(static_cast<db::TableId>(t)).checkInvariants();
}

TEST(TxnTypeByName, RoundTripsEveryBenchmarkAndRejectsUnknown)
{
    for (TxnType t : allBenchmarks()) {
        std::string name = txnTypeName(t);
        for (char &c : name)
            if (c == ' ')
                c = '_';
        EXPECT_EQ(txnTypeByName(name), t) << name;
    }
    EXPECT_EQ(allBenchmarks().size(), 7u);
    EXPECT_EQ(txnTypeByName("NEW_ORDER_150"), TxnType::NewOrder150);
    EXPECT_FALSE(txnTypeByName("NEW ORDER").has_value());
    EXPECT_FALSE(txnTypeByName("NEW_ORDERS").has_value());
    EXPECT_FALSE(txnTypeByName("").has_value());
}

} // namespace
} // namespace tpcc
} // namespace tlsim
