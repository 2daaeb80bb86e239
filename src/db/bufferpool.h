/**
 * @file
 * The buffer pool: owns every page frame (the workload is memory
 * resident, as in the paper: a buffer pool large enough that reads
 * never go to disk). fetch() models BerkeleyDB's memp_fget — a hash
 * probe, frame pinning, and (untuned) global LRU maintenance whose
 * shared head pointer is one of the cross-epoch dependences the
 * paper's iterative tuning removes.
 *
 * A pool either starts empty or over a PoolImage, the frozen frames of
 * a loaded database. An image-backed pool allocates its own frames
 * without touching them and copies a page from the image the first
 * time frameAddr() hands it out, so a capture pays (in time and
 * resident memory) only for the pages it touches.
 */

#ifndef DB_BUFFERPOOL_H
#define DB_BUFFERPOOL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tracer.h"
#include "db/dbtypes.h"
#include "db/page.h"

namespace tlsim {
namespace db {

/**
 * One allocation of page frames. The frames start at a page boundary
 * inside it, as a real buffer pool's do: where a traced access splits
 * at cache-line boundaries then depends on its offset in the page, not
 * on where the heap put the chunk.
 */
struct FrameChunk
{
    std::unique_ptr<std::uint8_t[]> mem;
    std::uint8_t *base = nullptr; ///< first frame, page-aligned
};

using FrameChunks = std::vector<FrameChunk>;

/** A pool's frames and metadata, frozen (BufferPool::takeImage). */
struct PoolImage
{
    FrameChunks chunks;
    PageId nextPage = 1;
    std::vector<std::uint32_t> buckets;
    std::uint64_t lruHead = 0;
};

/** All page frames plus the traced metadata around them. */
class BufferPool
{
  public:
    BufferPool(const DbConfig &cfg, Tracer &tracer);

    /**
     * A working pool over `image`, which must outlive it: same pages,
     * page ids and metadata values, each page copied from the image on
     * first touch. Pages allocated later are formatted as usual.
     */
    BufferPool(const PoolImage &image, const DbConfig &cfg,
               Tracer &tracer);

    /** Allocate and format a fresh page. */
    PageId allocPage(std::uint8_t level);

    /**
     * Pin a page and return a view of its frame. `dependent` marks the
     * probe as consuming a just-loaded pointer (B-tree descent).
     */
    Page fetch(PageId pid, bool dependent = false);

    /** Unpin (cost accounting only; frames never leave memory). */
    void unpin(PageId pid);

    /** Frame address without trace side effects (for assertions).
     *  The first call for an image page copies it in. */
    void *frameAddr(PageId pid) const;

    std::uint64_t pagesAllocated() const { return nextPage_ - 1; }

    /** Move the frames and metadata out; the pool is unusable after. */
    PoolImage takeImage();

  private:
    static constexpr unsigned kPagesPerChunk = 1024;

    /** Append one chunk of (untouched) frames. */
    void addChunk();

    const DbConfig &cfg_;
    Tracer &tr_;

    FrameChunks chunks_;
    PageId nextPage_ = 1; ///< page 0 is the invalid page

    /** Copy-on-first-touch source (null for a pool built empty). */
    const PoolImage *image_ = nullptr;
    /** Per image page: already copied into chunks_. Logically const:
     *  an uncopied frame reads as its image page. */
    mutable std::vector<bool> copied_;

    /** Modelled memp hash buckets (traced shared metadata). */
    std::vector<std::uint32_t> buckets_;
    /** Modelled global LRU head (traced hot spot when !tuned). */
    std::uint64_t lruHead_ = 0;
};

} // namespace db
} // namespace tlsim

#endif // DB_BUFFERPOOL_H
