/**
 * @file
 * The STOCK LEVEL transaction (clause 2.8): counts distinct items with
 * low stock among the district's 20 most recent orders. The per-order
 * loop is parallelized; the shared distinct-item scratch is a genuine
 * cross-epoch dependence the paper reports as hard to remove, so some
 * failed speculation remains even in the tuned build.
 */

#include "base/log.h"
#include "core/site.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;

void
TpccDb::txnStockLevel(const StockLevelInput &in)
{
    constexpr Site s_glue{SiteId::TpccStocklevelSetup};
    constexpr Site s_ord{SiteId::TpccStocklevelOrderGlue};
    constexpr Site s_seen{SiteId::TpccStocklevelDistinctSet};
    constexpr Site s_count{SiteId::TpccStocklevelCount};

    db::Txn txn = db_.begin();
    tr_.compute(s_glue.pc, 700);

    Bytes buf;
    if (!db_.get(txn, t_.district, kDistrict(in.d_id), &buf))
        panic("STOCK LEVEL: district missing");
    auto d = fromBytes<DistrictRow>(buf);

    ++stockSeenStamp_;
    std::uint32_t lo_o =
        d.next_o_id > 20 ? d.next_o_id - 20 : 1;

    // First pass: read the 20 most recent ORDER rows to build the
    // join worklist (sequential; cheap relative to the join itself).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> lines;
    for (std::uint32_t o_id = lo_o; o_id < d.next_o_id; ++o_id) {
        tr_.compute(s_ord.pc, 300);
        if (!db_.get(txn, t_.order, kOrder(in.d_id, o_id), &buf))
            continue;
        auto o = fromBytes<OrderRow>(buf);
        for (std::uint32_t ol = 1; ol <= o.ol_cnt; ++ol)
            lines.emplace_back(o_id, ol);
    }

    // The join over ORDER_LINE x STOCK is the parallelized loop: one
    // epoch per order line (the paper's smallest threads, ~7.5k
    // dynamic instructions each).
    tr_.loopBegin();
    for (auto [o_id, ol] : lines) {
        tr_.iterBegin();
        if (tlsBuild())
            db_.beginEpochWork();
        tr_.compute(s_ord.pc, 250);
        if (!db_.get(txn, t_.orderLine, kOrderLine(in.d_id, o_id, ol),
                     &buf))
            panic("STOCK LEVEL: order line (%u,%u) missing", o_id, ol);
        auto lr = fromBytes<OrderLineRow>(buf);
        if (!db_.get(txn, t_.stock, kStock(lr.i_id), &buf))
            panic("STOCK LEVEL: stock %u missing", lr.i_id);
        auto st = fromBytes<StockRow>(buf);
        if (st.quantity < static_cast<std::int32_t>(in.threshold)) {
            // Mark the item in the shared distinct-set scratch.
            auto *slot = &stockSeenStamps_[lr.i_id];
            tr_.load(s_seen.pc, slot, sizeof(*slot));
            *slot = stockSeenStamp_;
            tr_.store(s_seen.pc, slot, sizeof(*slot));
            tr_.compute(s_seen.pc, 60);
        }
        if (tlsBuild())
            db_.endEpochWork();
    }
    tr_.loopEnd();

    std::uint32_t count = 0;
    for (std::uint32_t i = 1; i <= cfg_.items; ++i)
        if (stockSeenStamps_[i] == stockSeenStamp_)
            ++count;
    // The COUNT(DISTINCT) aggregation over the collected set.
    tr_.compute(s_count.pc, 200 + 12 * count);
    lastStockLevel_ = count;

    db_.commit(txn);
}

} // namespace tpcc
} // namespace tlsim
