/**
 * @file
 * The TPC-C workload on minidb: data load (clause 4.3), the five
 * transactions plus the paper's two variants (NEW ORDER 150 with
 * 50-150-line orders, DELIVERY OUTER with the outer district loop
 * parallelized), and the capture driver that turns transaction
 * executions into WorkloadTraces for the TLS machine.
 *
 * Two "builds" exist, as in the paper: the original build (untuned
 * database, no TLS markers — the SEQUENTIAL binary) and the TLS build
 * (tuned database, loop markers, epoch hooks — the TLS-SEQ and
 * parallel binaries). `DbConfig::tuned` selects between them.
 *
 * Both builds load byte-identical databases (the load writes through
 * BTree::put only, never traced, locked or logged), so a capture runs
 * on a working copy of a shared DbImage instead of loading its own.
 */

#ifndef TPCC_TPCC_H
#define TPCC_TPCC_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tracer.h"
#include "db/db.h"
#include "db/keys.h"
#include "tpcc/input.h"
#include "tpcc/schema.h"

namespace tlsim {
namespace tpcc {

/** The seven benchmarks of the paper's evaluation (Figure 5). */
enum class TxnType {
    NewOrder,
    NewOrder150,
    Delivery,
    DeliveryOuter,
    StockLevel,
    Payment,
    OrderStatus,
};

const char *txnTypeName(TxnType t);
/** The inverse of txnTypeName, with '_' for each space
 *  ("NEW_ORDER_150"); nullopt for an unknown name. */
std::optional<TxnType> txnTypeByName(const std::string &name);
const std::vector<TxnType> &allBenchmarks();

/**
 * A loaded TPC-C database, frozen: exactly the state
 * TpccDb::load(loadSeed) leaves behind — the page frames, the pool
 * metadata, each table's root and record count, and the HISTORY
 * sequence. Immutable; shared by the working TpccDbs built over it.
 */
struct DbImage
{
    TpccConfig scale;
    std::uint64_t loadSeed = 0;
    db::DatabaseImage db;
    Tables tables{};
    std::uint64_t historySeq = 0;

    /** Run TpccDb::load(load_seed) untraced, then freeze the result. */
    static std::shared_ptr<const DbImage> load(const TpccConfig &scale,
                                               std::uint64_t load_seed);
};

/**
 * Images loaded on first request, one per distinct (scale, loadSeed):
 * the images of a batch of captures. Not thread-safe.
 */
class ImageLoader
{
  public:
    std::shared_ptr<const DbImage> get(const TpccConfig &scale,
                                       std::uint64_t load_seed);

  private:
    std::vector<std::shared_ptr<const DbImage>> images_;
};

/** The TPC-C database and transaction implementations. */
class TpccDb
{
  public:
    TpccDb(const TpccConfig &cfg, db::DbConfig db_cfg, Tracer &tracer);

    /**
     * A working database over a loaded image: the same contents as
     * a TpccDb that ran load(image->loadSeed), with fresh transaction
     * state. Pages are copied from the image on first touch.
     */
    TpccDb(const std::shared_ptr<const DbImage> &image,
           db::DbConfig db_cfg, Tracer &tracer);

    /** Initial population per clause 4.3 (run before capturing). */
    void load(std::uint64_t seed = 7);

    /** Execute one transaction with inputs drawn from `gen`. */
    void runTransaction(TxnType type, InputGen &gen,
                        std::uint32_t stock_level_district = 1);

    db::Database &database() { return db_; }
    const Tables &tables() const { return t_; }
    const TpccConfig &config() const { return cfg_; }

    /** Result summaries for functional tests. */
    std::uint32_t districtNextOrderId(std::uint32_t d_id);
    std::uint64_t orderCount() const;
    std::uint64_t newOrderCount() const;
    double customerBalance(std::uint32_t d_id, std::uint32_t c_id);
    std::uint32_t lastStockLevelResult() const { return lastStockLevel_; }
    std::uint64_t rollbacks() const { return rollbacks_; }

    /** TPC-C consistency conditions 3.3.2.1/2 (tests). */
    void checkConsistency();

    // Key builders (also used by tests).
    static db::Bytes kWarehouse();
    static db::Bytes kDistrict(std::uint32_t d);
    static db::Bytes kCustomer(std::uint32_t d, std::uint32_t c);
    static db::Bytes kCustomerName(std::uint32_t d, db::BytesView last,
                                   std::uint32_t c);
    static db::Bytes kOrder(std::uint32_t d, std::uint32_t o);
    static db::Bytes kOrderCust(std::uint32_t d, std::uint32_t c,
                                std::uint32_t o);
    static db::Bytes kOrderLine(std::uint32_t d, std::uint32_t o,
                                std::uint32_t ol);
    static db::Bytes kNewOrder(std::uint32_t d, std::uint32_t o);
    static db::Bytes kItem(std::uint32_t i);
    static db::Bytes kStock(std::uint32_t i);
    static db::Bytes kHistory(std::uint64_t seq);

  private:
    void txnNewOrder(const NewOrderInput &in);
    void txnPayment(const PaymentInput &in);
    void txnOrderStatus(const OrderStatusInput &in);
    void txnDelivery(const DeliveryInput &in, bool outer_parallel);
    void txnStockLevel(const StockLevelInput &in);

    /**
     * Resolve a customer by last name (60% case); returns c_id. The
     * scan loop is the (small) parallel region of PAYMENT (index-only)
     * and of ORDER STATUS (`read_rows`: each match also reads the
     * customer row, making the epochs meatier).
     */
    std::uint32_t customerByName(db::Txn &txn, std::uint32_t d_id,
                                 db::BytesView last, bool parallel_scan,
                                 bool read_rows = false);

    bool tlsBuild() const { return db_.config().tuned; }

    friend struct DbImage;

    TpccConfig cfg_;
    /** Keeps the copy-on-first-touch source alive (null if loaded). */
    std::shared_ptr<const DbImage> image_;
    db::Database db_;
    Tracer &tr_;
    Tables t_{};

    std::uint64_t historySeq_ = 0;
    /** Shared distinct-item scratch of STOCK LEVEL (a real, hard
     *  cross-epoch dependence the paper reports as irreducible). */
    std::uint32_t stockSeenStamp_ = 0;
    std::vector<std::uint32_t> stockSeenStamps_;
    std::uint32_t lastStockLevel_ = 0;
    std::uint64_t rollbacks_ = 0;
};

// --------------------------------------------------------------------
// Capture driver
// --------------------------------------------------------------------

/** How to capture a benchmark. */
struct CaptureOptions
{
    unsigned txns = 12;        ///< transactions captured
    bool tlsBuild = true;      ///< tuned DB + markers (vs original)
    bool parallelMode = true;  ///< tracer honors the loop markers
    std::uint64_t inputSeed = 42;
    std::uint64_t loadSeed = 7;
    unsigned spawnOverheadInsts = 100;
    TpccConfig scale;
};

/**
 * Run `opts.txns` transactions of `type` on a working copy of `image`
 * (which must match opts.scale and opts.loadSeed) and capture their
 * traces.
 */
WorkloadTrace captureBenchmark(TxnType type, const CaptureOptions &opts,
                               const std::shared_ptr<const DbImage> &image);

/** The same on a freshly loaded image. */
WorkloadTrace captureBenchmark(TxnType type, const CaptureOptions &opts);

} // namespace tpcc
} // namespace tlsim

#endif // TPCC_TPCC_H
