/**
 * @file
 * The ORDER STATUS transaction (clause 2.6): read-only. The loop over
 * the last order's lines is parallelized; coverage is modest and the
 * per-epoch work small, so (as in the paper) TLS does not help.
 */

#include "base/log.h"
#include "core/site.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;

void
TpccDb::txnOrderStatus(const OrderStatusInput &in)
{
    constexpr Site s_glue{SiteId::TpccOrderstatusSetup};
    constexpr Site s_line{SiteId::TpccOrderstatusReadLine};

    db::Txn txn = db_.begin();
    tr_.compute(s_glue.pc, 700);

    // The by-name scan is the parallelized region: each matching
    // customer is examined (row read included) by its own small epoch,
    // giving the paper's ~2.7 threads per transaction at 38% coverage.
    std::uint32_t c_id =
        in.byName
            ? customerByName(txn, in.d_id, in.c_last, true, true)
            : in.c_id;

    Bytes buf;
    if (!db_.get(txn, t_.customer, kCustomer(in.d_id, c_id), &buf))
        panic("ORDER STATUS: customer missing");

    // Latest order via the descending (d, c, ~o) index.
    auto cur = db_.cursor(t_.orderCust);
    Bytes lo = kOrderCust(in.d_id, c_id, ~std::uint32_t{0});
    Bytes prefix = lo.substr(0, 8);
    std::uint32_t o_id = 0;
    if (cur.seek(lo) && cur.key().substr(0, 8) == prefix)
        std::memcpy(&o_id, cur.value().data(), 4);

    if (o_id == 0) {
        // Customer without orders (possible at tiny scales).
        db_.commit(txn);
        return;
    }

    if (!db_.get(txn, t_.order, kOrder(in.d_id, o_id), &buf))
        panic("ORDER STATUS: order %u missing", o_id);
    auto o = fromBytes<OrderRow>(buf);

    // The line read-out stays sequential: its iterations are too small
    // to be worth speculative threads (they lose to spawn overhead).
    double total = 0.0;
    for (std::uint32_t ol = 1; ol <= o.ol_cnt; ++ol) {
        tr_.compute(s_line.pc, 400);
        if (!db_.get(txn, t_.orderLine,
                     kOrderLine(in.d_id, o_id, ol), &buf))
            panic("ORDER STATUS: order line %u missing", ol);
        auto lr = fromBytes<OrderLineRow>(buf);
        total += lr.amount;
    }
    tr_.compute(s_glue.pc, 200 + (total > 0 ? 1 : 0));

    db_.commit(txn);
}

} // namespace tpcc
} // namespace tlsim
