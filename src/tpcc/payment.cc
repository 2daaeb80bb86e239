/**
 * @file
 * The PAYMENT transaction (clause 2.5). Only the customer-by-last-name
 * scan is a loop, so speculative coverage is tiny (the paper reports
 * 3%) and PAYMENT shows no TLS benefit — it is kept as the negative
 * control of Figure 5.
 */

#include <algorithm>

#include "base/log.h"
#include "core/site.h"
#include "tpcc/tpcc.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;
using db::BytesView;

std::uint32_t
TpccDb::customerByName(db::Txn &txn, std::uint32_t d_id,
                       BytesView last, bool parallel_scan,
                       bool read_rows)
{
    constexpr Site s_scan{SiteId::TpccCustByNameScan};
    constexpr Site s_pick{SiteId::TpccCustByNamePickMiddle};

    Bytes lo = kCustomerName(d_id, last, 0);
    Bytes prefix = lo.substr(0, 4 + 16);

    std::vector<std::pair<std::string, std::uint32_t>> matches;

    auto cur = db_.cursor(t_.customerName);
    bool ok = cur.seek(lo);
    if (parallel_scan)
        tr_.loopBegin();
    while (ok && cur.key().substr(0, prefix.size()) == prefix) {
        if (parallel_scan)
            tr_.iterBegin();
        auto entry = fromBytes<CustomerNameEntry>(cur.value());
        if (read_rows) {
            Bytes buf;
            if (!db_.get(txn, t_.customer,
                         kCustomer(d_id, entry.c_id), &buf))
                panic("customer (%u,%u) missing from name index",
                      d_id, entry.c_id);
        }
        matches.emplace_back(
            std::string(entry.first, sizeof(entry.first)),
            entry.c_id);
        tr_.compute(s_scan.pc, 350);
        ok = cur.next();
    }
    if (parallel_scan)
        tr_.loopEnd();

    if (matches.empty())
        panic("no customer with the generated last name (scale too "
              "small for the name distribution)");

    // Clause 2.5.2.2: order by first name, take the middle row.
    std::sort(matches.begin(), matches.end());
    tr_.compute(s_pick.pc,
                120 + 40 * static_cast<unsigned>(matches.size()));
    return matches[matches.size() / 2].second;
}

void
TpccDb::txnPayment(const PaymentInput &in)
{
    constexpr Site s_glue{SiteId::TpccPaymentSetup};
    constexpr Site s_hist{SiteId::TpccPaymentHistorySeq};
    constexpr Site s_bc{SiteId::TpccPaymentBadCreditData};

    db::Txn txn = db_.begin();
    tr_.compute(s_glue.pc, 800);

    Bytes buf;
    if (!db_.get(txn, t_.warehouse, kWarehouse(), &buf))
        panic("PAYMENT: warehouse missing");
    auto w = fromBytes<WarehouseRow>(buf);
    w.ytd += in.amount;
    db_.put(txn, t_.warehouse, kWarehouse(), toBytes(w));

    if (!db_.get(txn, t_.district, kDistrict(in.d_id), &buf))
        panic("PAYMENT: district missing");
    auto d = fromBytes<DistrictRow>(buf);
    d.ytd += in.amount;
    db_.put(txn, t_.district, kDistrict(in.d_id), toBytes(d));

    std::uint32_t c_id =
        in.byName ? customerByName(txn, in.d_id, in.c_last, true)
                  : in.c_id;

    if (!db_.get(txn, t_.customer, kCustomer(in.d_id, c_id), &buf))
        panic("PAYMENT: customer missing");
    auto c = fromBytes<CustomerRow>(buf);
    c.balance -= in.amount;
    c.ytd_payment += in.amount;
    c.payment_cnt += 1;
    if (c.credit[0] == 'B') {
        // Bad credit: prepend payment info to C_DATA (big row write).
        std::memmove(c.data + 40, c.data, sizeof(c.data) - 40);
        std::snprintf(c.data, 40, "%u %u %.2f|", c_id, in.d_id,
                      in.amount);
        tr_.compute(s_bc.pc, 900);
    }
    db_.put(txn, t_.customer, kCustomer(in.d_id, c_id), toBytes(c));

    // Shared history sequence: a real dependence, but in the
    // sequential tail of the transaction.
    tr_.load(s_hist.pc, &historySeq_, sizeof(historySeq_));
    ++historySeq_;
    tr_.store(s_hist.pc, &historySeq_, sizeof(historySeq_));

    HistoryRow h{};
    h.c_id = c_id;
    h.c_d_id = in.d_id;
    h.d_id = in.d_id;
    h.amount = in.amount;
    db_.insert(txn, t_.history, kHistory(historySeq_), toBytes(h));

    db_.commit(txn);
}

} // namespace tpcc
} // namespace tlsim
