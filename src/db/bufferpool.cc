#include "db/bufferpool.h"

#include "base/log.h"
#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

BufferPool::BufferPool(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), buckets_(4096, 0),
      metaRegion_(tracer, this, sizeof(*this)),
      bucketsRegion_(tracer, buckets_.data(),
                     buckets_.size() * sizeof(buckets_[0]))
{
}

BufferPool::BufferPool(const PoolImage &image, const DbConfig &cfg,
                       Tracer &tracer)
    : cfg_(cfg), tr_(tracer), nextPage_(image.nextPage), image_(&image),
      copied_(image.nextPage - 1, false), buckets_(image.buckets),
      lruHead_(image.lruHead), metaRegion_(tracer, this, sizeof(*this)),
      bucketsRegion_(tracer, buckets_.data(),
                     buckets_.size() * sizeof(buckets_[0]))
{
    if (pagesAllocated() > cfg_.maxPages)
        fatal("buffer pool exhausted (%u pages)", cfg_.maxPages);
    while (chunks_.size() < image.chunks.size())
        addChunk();
}

void
BufferPool::addChunk()
{
    // Not value-initialized: a frame is written in full (Page::init or
    // the image copy) before its first use, and untouched frames stay
    // out of resident memory. The tracer places the frames by page id,
    // so where a traced access splits at line boundaries depends on
    // its offset in the page, not on where the heap put the chunk.
    std::uint64_t first_page = chunks_.size() * kPagesPerChunk + 1;
    chunks_.push_back(
        std::make_unique_for_overwrite<Frame[]>(kPagesPerChunk));
    chunkRegions_.push_back(TracedRegion::frames(
        tr_, chunks_.back().get(), first_page, kPagesPerChunk, kPageSize));
}

void *
BufferPool::frameAddr(PageId pid) const
{
    if (pid == kInvalidPage || pid >= nextPage_)
        panic("buffer pool: bad page id %u", pid);
    unsigned idx = pid - 1;
    Frame &frame = chunks_[idx / kPagesPerChunk][idx % kPagesPerChunk];
    if (idx < copied_.size() && !copied_[idx]) {
        frame = image_->chunks[idx / kPagesPerChunk][idx % kPagesPerChunk];
        copied_[idx] = true;
    }
    return frame.bytes;
}

PoolImage
BufferPool::takeImage()
{
    if (image_)
        panic("buffer pool: cannot freeze an image-backed pool");
    chunkRegions_.clear();
    bucketsRegion_ = TracedRegion{};
    PoolImage img{std::move(chunks_), nextPage_, std::move(buckets_),
                  lruHead_};
    chunks_.clear();
    buckets_.clear();
    nextPage_ = 1;
    return img;
}

PageId
BufferPool::allocPage(std::uint8_t level)
{
    constexpr Site s_alloc{SiteId::BufpoolAllocPage};
    if (nextPage_ - 1 >= cfg_.maxPages)
        fatal("buffer pool exhausted (%u pages)", cfg_.maxPages);

    unsigned idx = nextPage_ - 1;
    if (idx / kPagesPerChunk >= chunks_.size())
        addChunk();

    // The page-allocator counter is shared; splits running in
    // different epochs serialize on it. Tuned mode escapes the
    // allocation (it is isolation-unsafe work anyway).
    if (cfg_.tuned) {
        EscapedRegion esc(tr_, s_alloc.pc);
        tr_.latchAcquire(s_alloc.pc, namedLatch(kLatchPageAlloc));
        tr_.load(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.store(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.compute(s_alloc.pc, 60);
        tr_.latchRelease(s_alloc.pc, namedLatch(kLatchPageAlloc));
    } else {
        tr_.load(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.store(s_alloc.pc, &nextPage_, sizeof(nextPage_));
        tr_.compute(s_alloc.pc, 60);
    }

    PageId pid = nextPage_++;
    Page::init(frameAddr(pid), pid, level);
    return pid;
}

Page
BufferPool::fetch(PageId pid, bool dependent)
{
    constexpr Site s_hash{SiteId::BufpoolFetchHashProbe};
    constexpr Site s_lru{SiteId::BufpoolFetchLruUpdate};

    // Hash-bucket probe (shared, read-mostly).
    unsigned h = pid & (buckets_.size() - 1);
    tr_.load(s_hash.pc, &buckets_[h], sizeof(buckets_[h]), dependent);
    tr_.compute(s_hash.pc, cost::kFetchPage);

    if (!cfg_.tuned) {
        // BerkeleyDB-style global LRU maintenance: every fetch stores
        // to the shared list head — a dependence between every pair of
        // concurrent epochs. The tuned build removes it.
        tr_.load(s_lru.pc, &lruHead_, sizeof(lruHead_));
        lruHead_ = pid;
        tr_.store(s_lru.pc, &lruHead_, sizeof(lruHead_));
        tr_.compute(s_lru.pc, 25);
    }

    return Page(frameAddr(pid));
}

void
BufferPool::unpin(PageId pid)
{
    constexpr Site s_unpin{SiteId::BufpoolUnpin};
    (void)pid;
    tr_.compute(s_unpin.pc, cost::kUnpinPage);
}

} // namespace db
} // namespace tlsim
