#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/site.h"

namespace tlsim {
namespace {

TEST(SiteTable, NamesAreUnique)
{
    std::set<std::string_view> names(std::begin(kSiteNames),
                                     std::end(kSiteNames));
    EXPECT_EQ(names.size(), kSiteCount);
    for (std::string_view n : kSiteNames)
        EXPECT_FALSE(n.empty());
}

TEST(SiteTable, PcIsTheTableIndex)
{
    for (std::size_t i = 0; i < kSiteCount; ++i) {
        Pc pc = sitePc(static_cast<SiteId>(i));
        EXPECT_EQ(pc, kCodeBase + i * kBlockBytes);
        EXPECT_EQ(siteName(pc), kSiteNames[i]);
    }
    constexpr Site s{SiteId::TxnBegin};
    EXPECT_EQ(siteName(s.pc), "txn.begin");
}

TEST(SiteTable, UnknownPcFormats)
{
    EXPECT_EQ(siteName(0x1234), "<pc 0x1234>");
    Pc past_end = sitePc(static_cast<SiteId>(kSiteCount));
    EXPECT_EQ(siteName(past_end).rfind("<pc 0x", 0), 0u);
    EXPECT_EQ(siteName(kCodeBase + 1).rfind("<pc 0x", 0), 0u);
}

} // namespace
} // namespace tlsim
