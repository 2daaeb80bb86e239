#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/tracer.h"
#include "db/dbtypes.h"
#include "db/keys.h"

namespace tlsim {
namespace db {
namespace {

TEST(KeyBuilder, IntegerFieldsAreBigEndian)
{
    Bytes k = KeyBuilder().u32(0x01020304).bytes();
    ASSERT_EQ(k.size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(k[0]), 0x01);
    EXPECT_EQ(static_cast<unsigned char>(k[3]), 0x04);
}

TEST(KeyBuilder, U32OrderMatchesNumericOrder)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        auto a = static_cast<std::uint32_t>(rng.uniform(0, 1 << 30));
        auto b = static_cast<std::uint32_t>(rng.uniform(0, 1 << 30));
        Bytes ka = KeyBuilder().u32(a).bytes();
        Bytes kb = KeyBuilder().u32(b).bytes();
        EXPECT_EQ(a < b, ka < kb);
        EXPECT_EQ(a == b, ka == kb);
    }
}

TEST(KeyBuilder, U64OrderMatchesNumericOrder)
{
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t a = rng.next() >> 1;
        std::uint64_t b = rng.next() >> 1;
        EXPECT_EQ(a < b, KeyBuilder().u64(a).bytes() <
                             KeyBuilder().u64(b).bytes());
    }
}

TEST(KeyBuilder, DescendingFieldReversesOrder)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto a = static_cast<std::uint32_t>(rng.uniform(0, 1 << 30));
        auto b = static_cast<std::uint32_t>(rng.uniform(0, 1 << 30));
        Bytes ka = KeyBuilder().u32Desc(a).bytes();
        Bytes kb = KeyBuilder().u32Desc(b).bytes();
        EXPECT_EQ(a > b, ka < kb); // larger values sort first
    }
}

TEST(KeyBuilder, CompositeOrderIsLexicographicByField)
{
    // (d, o) keys: district dominates, then order id.
    Bytes a = KeyBuilder().u32(1).u32(999).bytes();
    Bytes b = KeyBuilder().u32(2).u32(1).bytes();
    Bytes c = KeyBuilder().u32(2).u32(2).bytes();
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(KeyBuilder, StringFieldsArePaddedToFixedWidth)
{
    Bytes a = KeyBuilder().str("BAR", 16).bytes();
    Bytes b = KeyBuilder().str("BARBAR", 16).bytes();
    ASSERT_EQ(a.size(), 16u);
    ASSERT_EQ(b.size(), 16u);
    EXPECT_LT(a, b); // "BAR\0..." < "BARBAR\0..."
    // Truncation at the width.
    Bytes t = KeyBuilder().str("ABCDEFGHIJKLMNOPQRST", 4).bytes();
    EXPECT_EQ(t, "ABCD");
}

TEST(KeyBuilder, PrefixSeeksWork)
{
    // A (d, last, c) name-index key with c=0 is <= every real key of
    // the same (d, last) prefix — the seek pattern the workload uses.
    Bytes lo = KeyBuilder().u32(3).str("OUGHT", 16).u32(0).bytes();
    Bytes real = KeyBuilder().u32(3).str("OUGHT", 16).u32(17).bytes();
    Bytes other = KeyBuilder().u32(3).str("PRES", 16).u32(1).bytes();
    EXPECT_LE(lo, real);
    EXPECT_EQ(real.substr(0, 20), lo.substr(0, 20));
    EXPECT_NE(other.substr(0, 20), lo.substr(0, 20));
}

TEST(DbTypes, LatchIdNamespacesDoNotCollide)
{
    EXPECT_NE(pageLatch(1), namedLatch(kLatchLog));
    EXPECT_NE(namedLatch(kLatchBufPool), namedLatch(kLatchLog));
    // The named space sits above every page the synthetic address
    // space has a frame for, and every latch id fits 32 bits.
    EXPECT_LT(pageLatch(static_cast<PageId>(
                  (Tracer::kSpaceEnd - Tracer::kFramesBase) / kPageSize)),
              namedLatch(0));
    EXPECT_LE(namedLatch(kLatchLockTable) + 16 + 255,
              std::uint64_t{~std::uint32_t{0}});
}

} // namespace
} // namespace db
} // namespace tlsim
