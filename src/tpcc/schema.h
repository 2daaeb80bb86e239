/**
 * @file
 * TPC-C schema: the nine tables plus the two secondary indexes the
 * transactions need (customer-by-last-name, orders-by-customer). Rows
 * are fixed-layout PODs serialized byte-for-byte into B-tree values;
 * field widths follow the TPC-C specification (clause 1.3).
 *
 * The workload is configured with a single warehouse, as in the paper:
 * intra-transaction parallelism is the concurrency source, so the
 * usual multi-warehouse scaling is disabled.
 */

#ifndef TPCC_SCHEMA_H
#define TPCC_SCHEMA_H

#include <cstdint>
#include <cstring>

#include "db/dbtypes.h"

namespace tlsim {
namespace tpcc {

/** Scale parameters (TPC-C clause 4.3 for one warehouse). */
struct TpccConfig
{
    std::uint32_t items = 100000;
    std::uint32_t districts = 10;
    std::uint32_t customersPerDistrict = 3000;
    std::uint32_t ordersPerDistrict = 3000;
    /** Orders >= this id start undelivered (spec: 2101). */
    std::uint32_t firstNewOrder = 2101;

    bool operator==(const TpccConfig &) const = default;

    /** A small preset for unit tests. */
    static TpccConfig
    tiny()
    {
        TpccConfig c;
        c.items = 500;
        c.districts = 3;
        c.customersPerDistrict = 60;
        c.ordersPerDistrict = 60;
        c.firstNewOrder = 31;
        return c;
    }
};

// --------------------------------------------------------------------
// Row layouts (packed PODs; serialized via memcpy)
// --------------------------------------------------------------------

struct WarehouseRow
{
    std::uint32_t w_id;
    char name[10];
    char street_1[20];
    char city[20];
    char state[2];
    char zip[9];
    double tax;
    double ytd;
};

struct DistrictRow
{
    std::uint32_t d_id;
    std::uint32_t w_id;
    char name[10];
    char street_1[20];
    char city[20];
    char state[2];
    char zip[9];
    double tax;
    double ytd;
    std::uint32_t next_o_id;
};

struct CustomerRow
{
    std::uint32_t c_id;
    std::uint32_t d_id;
    std::uint32_t w_id;
    char first[16];
    char middle[2];
    char last[16];
    char street_1[20];
    char city[20];
    char state[2];
    char zip[9];
    char phone[16];
    std::uint64_t since;
    char credit[2];
    double credit_lim;
    double discount;
    double balance;
    double ytd_payment;
    std::uint16_t payment_cnt;
    std::uint16_t delivery_cnt;
    char data[500];
};

struct HistoryRow
{
    std::uint32_t c_id;
    std::uint32_t c_d_id;
    std::uint32_t d_id;
    std::uint64_t date;
    double amount;
    char data[24];
};

struct NewOrderRow
{
    std::uint32_t o_id;
    std::uint32_t d_id;
};

struct OrderRow
{
    std::uint32_t o_id;
    std::uint32_t c_id;
    std::uint32_t d_id;
    std::uint64_t entry_d;
    std::uint32_t carrier_id; ///< 0 = undelivered
    std::uint32_t ol_cnt;
    std::uint32_t all_local;
};

struct OrderLineRow
{
    std::uint32_t o_id;
    std::uint32_t d_id;
    std::uint32_t ol_number;
    std::uint32_t i_id;
    std::uint32_t supply_w_id;
    std::uint64_t delivery_d; ///< 0 = undelivered
    std::uint32_t quantity;
    double amount;
    char dist_info[24];
};

/** Value of the customer-by-last-name index: enough to pick the
 *  middle customer ordered by first name without touching the row. */
struct CustomerNameEntry
{
    char first[16];
    std::uint32_t c_id;
};

struct ItemRow
{
    std::uint32_t i_id;
    std::uint32_t im_id;
    char name[24];
    double price;
    char data[50];
};

struct StockRow
{
    std::uint32_t i_id;
    std::int32_t quantity;
    char dist[10][24];
    std::uint32_t ytd;
    std::uint16_t order_cnt;
    std::uint16_t remote_cnt;
    char data[50];
};

/** Serialize a POD row. */
template <typename Row>
db::Bytes
toBytes(const Row &r)
{
    return db::Bytes(reinterpret_cast<const char *>(&r), sizeof(Row));
}

/** Deserialize a POD row (panics on size mismatch via caller checks). */
template <typename Row>
Row
fromBytes(db::BytesView b)
{
    Row r;
    std::memcpy(&r, b.data(),
                b.size() < sizeof(Row) ? b.size() : sizeof(Row));
    return r;
}

/** The tables (indexes into Database::table). */
struct Tables
{
    db::TableId warehouse;
    db::TableId district;
    db::TableId customer;
    db::TableId customerName; ///< (d, last, c) -> c_id
    db::TableId history;      ///< seq -> HistoryRow
    db::TableId newOrder;     ///< (d, o) -> NewOrderRow
    db::TableId order;        ///< (d, o) -> OrderRow
    db::TableId orderCust;    ///< (d, c, ~o) -> o_id
    db::TableId orderLine;    ///< (d, o, ol) -> OrderLineRow
    db::TableId item;
    db::TableId stock;
};

} // namespace tpcc
} // namespace tlsim

#endif // TPCC_SCHEMA_H
