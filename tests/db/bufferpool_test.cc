#include <gtest/gtest.h>

#include "db/bufferpool.h"

namespace tlsim {
namespace db {
namespace {

TEST(BufferPool, AllocFormatsPages)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    PageId b = pool.allocPage(1);
    EXPECT_NE(a, kInvalidPage);
    EXPECT_NE(a, b);
    Page pa = pool.fetch(a);
    Page pb = pool.fetch(b);
    EXPECT_EQ(pa.hdr().id, a);
    EXPECT_TRUE(pa.leaf());
    EXPECT_EQ(pb.hdr().level, 1);
    EXPECT_EQ(pool.pagesAllocated(), 2u);
}

TEST(BufferPool, FrameAddressesAreStable)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    void *addr = pool.frameAddr(a);
    // Allocating thousands more pages (spanning chunks) must not move
    // existing frames — traces carry raw frame addresses.
    for (int i = 0; i < 3000; ++i)
        pool.allocPage(0);
    EXPECT_EQ(pool.frameAddr(a), addr);
}

TEST(BufferPool, FramesAreDistinctAndPageSized)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);
    PageId b = pool.allocPage(0);
    auto *pa = static_cast<std::uint8_t *>(pool.frameAddr(a));
    auto *pb = static_cast<std::uint8_t *>(pool.frameAddr(b));
    EXPECT_GE(std::abs(pb - pa),
              static_cast<std::ptrdiff_t>(kPageSize));
}

TEST(BufferPoolDeathTest, BadPageIdPanics)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool pool(cfg, tr);
    EXPECT_DEATH(pool.frameAddr(kInvalidPage), "bad page id");
    EXPECT_DEATH(pool.frameAddr(55), "bad page id");
}

TEST(BufferPoolDeathTest, ExhaustionIsFatal)
{
    DbConfig cfg;
    cfg.maxPages = 4;
    Tracer tr;
    BufferPool pool(cfg, tr);
    for (int i = 0; i < 4; ++i)
        pool.allocPage(0);
    EXPECT_EXIT(pool.allocPage(0), ::testing::ExitedWithCode(1),
                "exhausted");
}

TEST(BufferPool, UntunedFetchTracesLruUpdates)
{
    DbConfig cfg;
    cfg.tuned = false;
    Tracer tr;
    BufferPool pool(cfg, tr);
    PageId a = pool.allocPage(0);

    tr.txnBegin();
    pool.fetch(a);
    tr.txnEnd();
    unsigned untuned_stores = 0;
    for (const auto &r : tr.workload()
                             .txns.at(0)
                             .sections.at(0)
                             .epochs.at(0)
                             .records)
        untuned_stores += r.op == TraceOp::Store;
    EXPECT_GE(untuned_stores, 1u); // the shared LRU head store

    DbConfig tuned_cfg;
    Tracer tr2;
    BufferPool pool2(tuned_cfg, tr2);
    PageId b = pool2.allocPage(0);
    tr2.txnBegin();
    pool2.fetch(b);
    tr2.txnEnd();
    unsigned tuned_stores = 0;
    for (const auto &r : tr2.workload()
                             .txns.at(0)
                             .sections.at(0)
                             .epochs.at(0)
                             .records)
        tuned_stores += r.op == TraceOp::Store;
    EXPECT_EQ(tuned_stores, 0u); // tuned build: no LRU store
}

TEST(BufferPool, ImageBackedPoolCopiesOnFirstTouch)
{
    DbConfig cfg;
    Tracer tr;
    BufferPool src(cfg, tr);
    PageId a = src.allocPage(0);
    PageId b = src.allocPage(1);
    static_cast<std::uint8_t *>(src.frameAddr(a))[100] = 0xAB;
    PoolImage image = src.takeImage();

    BufferPool copy(image, cfg, tr);
    EXPECT_EQ(copy.pagesAllocated(), 2u);
    auto *fa = static_cast<std::uint8_t *>(copy.frameAddr(a));
    EXPECT_EQ(fa[100], 0xAB);
    EXPECT_EQ(copy.fetch(b).hdr().level, 1);
    // Frames are page-aligned and the copy's own: writing one leaves
    // the image untouched.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fa) % kPageSize, 0u);
    fa[100] = 0xCD;
    EXPECT_EQ(image.chunks[0].base[100], 0xAB);
    EXPECT_EQ(copy.fetch(a).hdr().id, a);
    // Pages past the image are formatted as in any pool.
    PageId c = copy.allocPage(0);
    EXPECT_EQ(c, 3u);
    EXPECT_TRUE(copy.fetch(c).leaf());
    EXPECT_EQ(copy.fetch(c).slotCount(), 0u);
}

} // namespace
} // namespace db
} // namespace tlsim
