#include "db/log.h"

#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

LogManager::LogManager(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), buffer_(kGlobalBufBytes),
      epochBufs_(kEpochBufs, std::vector<std::uint8_t>(kEpochBufBytes))
{
    regions_.emplace_back(tracer, this, sizeof(*this));
    regions_.emplace_back(tracer, buffer_.data(), buffer_.size(), 64);
    for (auto &b : epochBufs_)
        regions_.emplace_back(tracer, b.data(), b.size(), 64);
}

void
LogManager::logRecord(unsigned bytes)
{
    if (!cfg_.traceLog)
        return;
    constexpr Site s_lsn{SiteId::LogPutLsnAlloc};
    constexpr Site s_tail{SiteId::LogPutTail};
    constexpr Site s_copy{SiteId::LogPutCopy};
    constexpr Site s_local{SiteId::LogPutEpochLocal};

    unsigned insts = cost::kLogRecordBase + bytes * cost::kLogPerByte;

    if (cfg_.tuned) {
        // Private per-epoch buffer: no shared state touched here.
        if (epochOff_ + bytes + 16 > kEpochBufBytes)
            epochOff_ = 0; // wrap within the private buffer
        auto *dst = epochBufs_[curBuf_].data() + epochOff_;
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

    tr_.store(s_copy.pc, buffer_.data() + off,
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
    constexpr Site s_chain{SiteId::LogPublishTxnChain};
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
    constexpr Site s_pub{SiteId::LogPublishEpoch};

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
    constexpr Site s_commit{SiteId::LogTxnCommit};
    logRecord(32);
    tr_.compute(s_commit.pc, cost::kTxnCommit);
}

} // namespace db
} // namespace tlsim
