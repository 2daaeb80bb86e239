/**
 * @file
 * Write-ahead log. The untuned build models BerkeleyDB's log_put: a
 * global LSN counter and shared log tail that every update touches —
 * the single hottest cross-epoch dependence the paper's tuning
 * removes. The tuned build gives each epoch a private log buffer and
 * assigns LSNs lazily inside an escaped region at epoch end (the
 * VLDB'05 optimization).
 */

#ifndef DB_LOG_H
#define DB_LOG_H

#include <cstdint>
#include <vector>

#include "core/tracer.h"
#include "db/dbtypes.h"

namespace tlsim {
namespace db {

/** The log manager (timing/trace model; bytes are not interpreted). */
class LogManager
{
  public:
    LogManager(const DbConfig &cfg, Tracer &tracer);

    /** Append one log record of `bytes` payload. */
    void logRecord(unsigned bytes);

    /**
     * Epoch boundary (tuned mode): switch to a fresh private buffer so
     * concurrent epochs never share log-buffer lines.
     */
    void beginEpochBuffer();

    /**
     * Publish the current epoch's private records to the global log
     * (tuned mode; escaped). Called at the end of each epoch, and
     * automatically whenever a batch of kPublishBatch records has
     * accumulated (the private buffer slots are finite, as in the
     * VLDB'05 design).
     */
    void publishEpochRecords();

    /**
     * Link this epoch's batch into the transaction's undo/LSN chain:
     * a speculative read-modify-write of the chain head — the serial
     * inter-epoch dependence that survives tuning. Also used alone by
     * read-only epochs publishing their lock batches.
     */
    void linkEpochChain();

    unsigned pendingEpochRecords() const { return epochRecords_; }

    /**
     * Records per publish batch in the tuned build. Publishing is a
     * serial inter-epoch dependence (the chain link), so the batch is
     * sized to make it a once-per-epoch event for every TPC-C epoch;
     * only pathologically large epochs publish mid-flight.
     */
    static constexpr unsigned kPublishBatch = 64;

    /** Transaction commit record plus group-commit bookkeeping. */
    void txnCommit();

    Lsn nextLsn() const { return nextLsn_; }

  private:
    static constexpr unsigned kGlobalBufBytes = 1 << 20;
    static constexpr unsigned kEpochBufBytes = 64 * 1024;
    static constexpr unsigned kEpochBufs = 16;

    const DbConfig &cfg_;
    Tracer &tr_;

    Lsn nextLsn_ = 1;
    std::uint64_t tailOff_ = 0;
    std::uint64_t chainHead_ = 0; ///< per-txn undo/LSN chain head

    std::vector<std::uint8_t> buffer_;
    std::vector<std::vector<std::uint8_t>> epochBufs_;
    /** This object (the LSN, tail and chain words), the global
     *  buffer, then each epoch buffer; buffers start on a line. */
    std::vector<TracedRegion> regions_;
    unsigned curBuf_ = 0;
    std::uint64_t epochOff_ = 0;
    unsigned epochRecords_ = 0;
};

} // namespace db
} // namespace tlsim

#endif // DB_LOG_H
