/**
 * @file
 * The NEW ORDER transaction (TPC-C clause 2.4) — the paper's flagship
 * benchmark. The per-order-line loop is the speculatively parallelized
 * region: each iteration reads ITEM, updates STOCK and appends an
 * ORDER_LINE. The appends hit the same B-tree leaf, which is the
 * canonical frequent-but-cheap dependence that sub-threads tolerate.
 */

#include "core/site.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;

void
TpccDb::txnNewOrder(const NewOrderInput &in)
{
    constexpr Site s_glue{SiteId::TpccNeworderSetup};
    constexpr Site s_line{SiteId::TpccNeworderLineGlue};
    constexpr Site s_total{SiteId::TpccNeworderTotals};

    db::Txn txn = db_.begin();
    tr_.compute(s_glue.pc, 900);

    Bytes buf;
    if (!db_.get(txn, t_.warehouse, kWarehouse(), &buf))
        panic("NEW ORDER: warehouse missing");
    auto w = fromBytes<WarehouseRow>(buf);

    if (!db_.get(txn, t_.district, kDistrict(in.d_id), &buf))
        panic("NEW ORDER: district %u missing", in.d_id);
    auto d = fromBytes<DistrictRow>(buf);
    std::uint32_t o_id = d.next_o_id;
    d.next_o_id += 1;
    db_.put(txn, t_.district, kDistrict(in.d_id), toBytes(d));

    if (!db_.get(txn, t_.customer, kCustomer(in.d_id, in.c_id), &buf))
        panic("NEW ORDER: customer (%u,%u) missing", in.d_id, in.c_id);
    auto c = fromBytes<CustomerRow>(buf);

    OrderRow orow{};
    orow.o_id = o_id;
    orow.c_id = in.c_id;
    orow.d_id = in.d_id;
    orow.entry_d = o_id;
    orow.carrier_id = 0;
    orow.ol_cnt = static_cast<std::uint32_t>(in.lines.size());
    orow.all_local = 1;
    db_.insert(txn, t_.order, kOrder(in.d_id, o_id), toBytes(orow));
    std::uint32_t oid = o_id;
    db_.insert(txn, t_.orderCust, kOrderCust(in.d_id, in.c_id, o_id),
               Bytes(reinterpret_cast<const char *>(&oid), 4));
    NewOrderRow nrow{o_id, in.d_id};
    db_.insert(txn, t_.newOrder, kNewOrder(in.d_id, o_id),
               toBytes(nrow));

    bool failed = false;
    double total = 0.0;

    tr_.loopBegin();
    for (std::size_t ol = 0; ol < in.lines.size(); ++ol) {
        tr_.iterBegin();
        if (tlsBuild())
            db_.beginEpochWork();
        tr_.compute(s_line.pc, 700);

        const auto &line = in.lines[ol];
        bool invalid = in.rollback && ol + 1 == in.lines.size();
        std::uint32_t i_id =
            invalid ? cfg_.items + 999983 : line.i_id;

        if (!db_.get(txn, t_.item, kItem(i_id), &buf)) {
            // Clause 2.4.1.4: unused item number => rollback.
            failed = true;
            if (tlsBuild())
                db_.endEpochWork();
            break;
        }
        auto item = fromBytes<ItemRow>(buf);

        if (!db_.get(txn, t_.stock, kStock(i_id), &buf))
            panic("NEW ORDER: stock %u missing", i_id);
        auto st = fromBytes<StockRow>(buf);
        if (st.quantity >= static_cast<std::int32_t>(line.quantity) + 10)
            st.quantity -= static_cast<std::int32_t>(line.quantity);
        else
            st.quantity +=
                91 - static_cast<std::int32_t>(line.quantity);
        st.ytd += line.quantity;
        st.order_cnt += 1;
        db_.put(txn, t_.stock, kStock(i_id), toBytes(st));

        double amount = line.quantity * item.price *
                        (1.0 + w.tax + d.tax) * (1.0 - c.discount);
        total += amount;

        OrderLineRow lr{};
        lr.o_id = o_id;
        lr.d_id = in.d_id;
        lr.ol_number = static_cast<std::uint32_t>(ol + 1);
        lr.i_id = i_id;
        lr.supply_w_id = 1;
        lr.delivery_d = 0;
        lr.quantity = line.quantity;
        lr.amount = amount;
        db_.insert(txn, t_.orderLine,
                   kOrderLine(in.d_id, o_id,
                              static_cast<std::uint32_t>(ol + 1)),
                   toBytes(lr));
        tr_.compute(s_line.pc, 400, ComputeClass::Fp);
        if (tlsBuild())
            db_.endEpochWork();
    }
    tr_.loopEnd();

    tr_.compute(s_total.pc, 300 + (total > 0 ? 1 : 0));
    if (failed) {
        ++rollbacks_;
        db_.abort(txn);
    } else {
        db_.commit(txn);
    }
}

} // namespace tpcc
} // namespace tlsim
