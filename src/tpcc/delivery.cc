/**
 * @file
 * The DELIVERY transaction (clause 2.7), in both of the paper's
 * decompositions:
 *
 *  - DELIVERY: the inner per-order-line loop is parallelized (63%
 *    coverage, ~33k-instruction threads in the paper);
 *  - DELIVERY OUTER: the outer per-district loop is parallelized (99%
 *    coverage, ~490k-instruction threads), which is where sub-threads
 *    matter most — an early violation without sub-threads rewinds
 *    half a million instructions.
 */

#include "base/log.h"
#include "core/site.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;

void
TpccDb::txnDelivery(const DeliveryInput &in, bool outer_parallel)
{
    constexpr Site s_glue{SiteId::TpccDeliverySetup};
    constexpr Site s_find{SiteId::TpccDeliveryFindOldest};
    constexpr Site s_line{SiteId::TpccDeliveryUpdateLine};
    constexpr Site s_cust{SiteId::TpccDeliveryCreditCustomer};

    db::Txn txn = db_.begin();
    tr_.compute(s_glue.pc, 900);

    if (outer_parallel)
        tr_.loopBegin();

    for (std::uint32_t d = 1; d <= cfg_.districts; ++d) {
        if (outer_parallel) {
            tr_.iterBegin();
            if (tlsBuild())
                db_.beginEpochWork();
        }

        // Oldest undelivered order of this district.
        auto cur = db_.cursor(t_.newOrder);
        Bytes lo = kNewOrder(d, 0);
        std::uint32_t o_id = 0;
        tr_.compute(s_find.pc, 400);
        if (cur.seek(lo)) {
            NewOrderRow nr = fromBytes<NewOrderRow>(cur.value());
            if (nr.d_id == d)
                o_id = nr.o_id;
        }
        if (o_id == 0) {
            // Clause 2.7.4.2: skip districts with no pending order.
            if (outer_parallel && tlsBuild())
                db_.endEpochWork();
            continue;
        }

        db_.erase(txn, t_.newOrder, kNewOrder(d, o_id));

        Bytes buf;
        if (!db_.get(txn, t_.order, kOrder(d, o_id), &buf))
            panic("DELIVERY: order %u missing", o_id);
        auto o = fromBytes<OrderRow>(buf);
        o.carrier_id = in.carrier_id;
        db_.put(txn, t_.order, kOrder(d, o_id), toBytes(o));

        double sum = 0.0;
        if (!outer_parallel)
            tr_.loopBegin();
        for (std::uint32_t ol = 1; ol <= o.ol_cnt; ++ol) {
            if (!outer_parallel) {
                tr_.iterBegin();
                if (tlsBuild())
                    db_.beginEpochWork();
            }
            tr_.compute(s_line.pc, 500);
            if (!db_.get(txn, t_.orderLine, kOrderLine(d, o_id, ol),
                         &buf))
                panic("DELIVERY: order line %u missing", ol);
            auto lr = fromBytes<OrderLineRow>(buf);
            lr.delivery_d = o.entry_d + 1;
            sum += lr.amount;
            db_.put(txn, t_.orderLine, kOrderLine(d, o_id, ol),
                    toBytes(lr));
            if (!outer_parallel && tlsBuild())
                db_.endEpochWork();
        }
        if (!outer_parallel)
            tr_.loopEnd();

        if (!db_.get(txn, t_.customer, kCustomer(d, o.c_id), &buf))
            panic("DELIVERY: customer missing");
        auto c = fromBytes<CustomerRow>(buf);
        c.balance += sum;
        c.delivery_cnt += 1;
        db_.put(txn, t_.customer, kCustomer(d, o.c_id), toBytes(c));
        tr_.compute(s_cust.pc, 400);

        if (outer_parallel && tlsBuild())
            db_.endEpochWork();
    }

    if (outer_parallel)
        tr_.loopEnd();

    db_.commit(txn);
}

} // namespace tpcc
} // namespace tlsim
