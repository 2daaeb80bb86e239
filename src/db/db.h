/**
 * @file
 * The minidb public API: tables (each a B+-tree), transactions with
 * undo-based abort, row locking, and write-ahead logging — the
 * BerkeleyDB-shaped surface the TPC-C transactions are written
 * against. All operations are traced when the Tracer is capturing.
 */

#ifndef DB_DB_H
#define DB_DB_H

#include <memory>
#include <string>
#include <vector>

#include "core/tracer.h"
#include "db/btree.h"
#include "db/bufferpool.h"
#include "db/dbtypes.h"
#include "db/lockmgr.h"
#include "db/log.h"

namespace tlsim {
namespace db {

class Database;

/**
 * A loaded database, frozen (Database::takeImage): the pool's frames
 * and metadata plus each table's name, root page and record count.
 * Working databases built over it share it read-only.
 */
struct DatabaseImage
{
    struct Table
    {
        std::string name;
        PageId root;
        std::uint64_t count;
    };

    PoolImage pool;
    std::vector<Table> tables;
};

/** A transaction handle: undo log plus held locks. */
class Txn
{
  public:
    TxnId id() const { return id_; }
    bool active() const { return active_; }

  private:
    friend class Database;

    enum class UndoKind { Insert, Update, Delete };

    struct Undo
    {
        UndoKind kind;
        TableId table;
        Bytes key;
        Bytes oldVal;
    };

    TxnId id_ = 0;
    bool active_ = false;
    std::vector<Undo> undo_;
    std::vector<std::uint32_t> locks_;
};

/** The database environment. */
class Database
{
  public:
    Database(DbConfig cfg, Tracer &tracer);

    /**
     * A working database over `image`, which must outlive it: the
     * image's tables and pages (copied on first touch), with fresh
     * lock, log and transaction state.
     */
    Database(const DatabaseImage &image, DbConfig cfg, Tracer &tracer);

    /**
     * Freeze the tables and pages into an image. Only valid while no
     * lock, log or transaction state exists (a freshly loaded
     * database); the database is unusable after.
     */
    DatabaseImage takeImage();

    /** Create a table; returns its id. */
    TableId createTable(std::string name);

    /** Direct index access (tests / data generation). */
    BTree &table(TableId t) { return *tables_.at(t); }
    std::size_t tableCount() const { return tables_.size(); }

    // --- Transactions -------------------------------------------------
    Txn begin();
    void commit(Txn &txn);
    void abort(Txn &txn);

    // --- Record operations (traced, locked, logged) --------------------
    /** Point read under a shared lock. */
    bool get(Txn &txn, TableId t, BytesView key, Bytes *val);

    /** Insert-or-update under an exclusive lock. */
    void put(Txn &txn, TableId t, BytesView key, BytesView val);

    /** Insert; false if the key already exists. */
    bool insert(Txn &txn, TableId t, BytesView key, BytesView val);

    /** Delete; false if absent. */
    bool erase(Txn &txn, TableId t, BytesView key);

    /** Range scan (read locks are modelled per touched record by the
     *  caller when required; scans here are latch-protected only). */
    BTree::Cursor cursor(TableId t) { return tables_.at(t)->cursor(); }

    // --- Epoch hooks (TLS-tuned builds) --------------------------------
    /** Call at the start of each speculative epoch's work. */
    void
    beginEpochWork()
    {
        log_.beginEpochBuffer();
        epochOps_ = 0;
    }

    /** Call at the end of each speculative epoch's work. */
    void
    endEpochWork()
    {
        if (log_.pendingEpochRecords() > 0)
            log_.publishEpochRecords();
        else if (epochOps_ > 0)
            log_.linkEpochChain(); // read-only epoch: lock batch only
        epochOps_ = 0;
    }

    const DbConfig &config() const { return cfg_; }
    Tracer &tracer() { return tr_; }
    BufferPool &pool() { return pool_; }
    LockManager &lockManager() { return locks_; }
    LogManager &logManager() { return log_; }

  private:
    void apiCost(Pc pc, unsigned key_bytes, unsigned val_bytes);
    void traceTxnBookkeeping(bool write_op);

    DbConfig cfg_;
    Tracer &tr_;
    BufferPool pool_;
    LockManager locks_;
    LogManager log_;
    /** Where the untuned build traces a transaction's lock-list and
     *  undo-chain heads: transactions run one at a time, so every Txn
     *  (a stack object) is traced at this one Txn-shaped slot. */
    Txn txnSlot_;
    TracedRegion txnRegion_;
    std::vector<std::unique_ptr<BTree>> tables_;
    TxnId nextTxn_ = 1;
    unsigned epochOps_ = 0; ///< operations since the last epoch hook
};

} // namespace db
} // namespace tlsim

#endif // DB_DB_H
