#include "db/log.h"

#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

LogManager::LogManager(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), buffer_(kGlobalBufBytes / sizeof(Line))
{
    epochBufs_.resize(kEpochBufs);
    for (auto &b : epochBufs_)
        b.resize(kEpochBufBytes / sizeof(Line));
}

void
LogManager::logRecord(unsigned bytes)
{
    if (!cfg_.traceLog)
        return;
    static const Site s_lsn("log.put.lsn_alloc");
    static const Site s_tail("log.put.tail");
    static const Site s_copy("log.put.copy");
    static const Site s_local("log.put.epoch_local");

    unsigned insts = cost::kLogRecordBase + bytes * cost::kLogPerByte;

    if (cfg_.tuned) {
        // Private per-epoch buffer: no shared state touched here.
        if (epochOff_ + bytes + 16 > kEpochBufBytes)
            epochOff_ = 0; // wrap within the private buffer
        auto *dst = bytesOf(epochBufs_[curBuf_]) + epochOff_;
        tr_.store(s_local.pc, dst, std::min(bytes + 16u, 64u));
        epochOff_ += bytes + 16;
        ++epochRecords_;
        tr_.compute(s_local.pc, insts);
        if (epochRecords_ >= kPublishBatch)
            publishEpochRecords();
        return;
    }

    // Untuned log_put: allocate an LSN from the global counter and
    // bump the shared tail — every pair of concurrent epochs conflicts
    // here.
    tr_.load(s_lsn.pc, &nextLsn_, sizeof(nextLsn_));
    nextLsn_ += 1;
    tr_.store(s_lsn.pc, &nextLsn_, sizeof(nextLsn_));

    tr_.load(s_tail.pc, &tailOff_, sizeof(tailOff_));
    std::uint64_t off = tailOff_ % (kGlobalBufBytes - bytes - 16);
    tailOff_ += bytes + 16;
    tr_.store(s_tail.pc, &tailOff_, sizeof(tailOff_));

    tr_.store(s_copy.pc, bytesOf(buffer_) + off,
              std::min(bytes + 16u, 64u));
    tr_.compute(s_copy.pc, insts);
}

void
LogManager::beginEpochBuffer()
{
    if (!cfg_.tuned)
        return;
    curBuf_ = (curBuf_ + 1) % kEpochBufs;
    epochOff_ = 0;
    epochRecords_ = 0;
}

void
LogManager::linkEpochChain()
{
    if (!cfg_.tuned || !cfg_.traceLog)
        return;
    static const Site s_chain("log.publish.txn_chain");
    // Linking a batch into the transaction's undo/LSN chain reads the
    // previous batch's chain head: a true serial dependence between
    // concurrent epochs that tuning cannot remove. A violation here
    // rewinds to the sub-thread containing the previous link with
    // sub-thread support, but the entire (possibly half-million-
    // instruction) thread without — the paper's DELIVERY OUTER
    // behaviour.
    tr_.load(s_chain.pc, &chainHead_, sizeof(chainHead_));
    chainHead_ += 1;
    tr_.store(s_chain.pc, &chainHead_, sizeof(chainHead_));
    tr_.compute(s_chain.pc, 80);
}

void
LogManager::publishEpochRecords()
{
    if (!cfg_.tuned || !cfg_.traceLog || epochRecords_ == 0)
        return;
    static const Site s_pub("log.publish_epoch");

    linkEpochChain();

    // Escaped: grab the log latch once per epoch, assign the epoch's
    // LSN range, and link the private buffer into the global order.
    EscapedRegion esc(tr_, s_pub.pc);
    tr_.latchAcquire(s_pub.pc, namedLatch(kLatchLog));
    tr_.load(s_pub.pc, &nextLsn_, sizeof(nextLsn_));
    nextLsn_ += epochRecords_;
    tr_.store(s_pub.pc, &nextLsn_, sizeof(nextLsn_));
    tr_.load(s_pub.pc, &tailOff_, sizeof(tailOff_));
    tailOff_ += epochOff_;
    tr_.store(s_pub.pc, &tailOff_, sizeof(tailOff_));
    tr_.compute(s_pub.pc, 150 + epochRecords_ * 20);
    tr_.latchRelease(s_pub.pc, namedLatch(kLatchLog));
    epochRecords_ = 0;
    epochOff_ = 0;
}

void
LogManager::txnCommit()
{
    if (!cfg_.traceLog)
        return;
    static const Site s_commit("log.txn_commit");
    logRecord(32);
    tr_.compute(s_commit.pc, cost::kTxnCommit);
}

} // namespace db
} // namespace tlsim
