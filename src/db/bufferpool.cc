#include "db/bufferpool.h"

#include <cstring>

#include "base/log.h"
#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

BufferPool::BufferPool(const DbConfig &cfg, Tracer &tracer)
    : cfg_(cfg), tr_(tracer), buckets_(4096, 0)
{
}

BufferPool::BufferPool(const PoolImage &image, const DbConfig &cfg,
                       Tracer &tracer)
    : cfg_(cfg), tr_(tracer), nextPage_(image.nextPage), image_(&image),
      copied_(image.nextPage - 1, false), buckets_(image.buckets),
      lruHead_(image.lruHead)
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
    // out of resident memory. Aligned by hand rather than by an
    // over-aligned new: a plain allocation lands beside the rest of
    // the database's traced objects, which keeps an epoch's addresses
    // within the 4 GB span a TraceIndex packs into 32 bits (aligned
    // allocations went to a separate mapping: +14 MB of index memory
    // and slower replay over a Figure 6 sweep).
    std::size_t frames = std::size_t{kPagesPerChunk} * kPageSize;
    std::size_t space = frames + kPageSize;
    auto mem = std::make_unique_for_overwrite<std::uint8_t[]>(space);
    void *base = mem.get();
    std::align(kPageSize, frames, base, space);
    chunks_.push_back({std::move(mem), static_cast<std::uint8_t *>(base)});
}

void *
BufferPool::frameAddr(PageId pid) const
{
    if (pid == kInvalidPage || pid >= nextPage_)
        panic("buffer pool: bad page id %u", pid);
    unsigned idx = pid - 1;
    std::size_t chunk = idx / kPagesPerChunk;
    std::size_t off =
        static_cast<std::size_t>(idx % kPagesPerChunk) * kPageSize;
    std::uint8_t *frame = chunks_[chunk].base + off;
    if (idx < copied_.size() && !copied_[idx]) {
        std::memcpy(frame, image_->chunks[chunk].base + off, kPageSize);
        copied_[idx] = true;
    }
    return frame;
}

PoolImage
BufferPool::takeImage()
{
    if (image_)
        panic("buffer pool: cannot freeze an image-backed pool");
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
    static const Site s_alloc("bufpool.alloc_page");
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
    static const Site s_hash("bufpool.fetch.hash_probe");
    static const Site s_lru("bufpool.fetch.lru_update");

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
    static const Site s_unpin("bufpool.unpin");
    (void)pid;
    tr_.compute(s_unpin.pc, cost::kUnpinPage);
}

} // namespace db
} // namespace tlsim
