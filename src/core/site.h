/**
 * @file
 * Synthetic program counters for static code sites.
 *
 * The database is instrumented at source level; every static
 * trace-emission site has a stable synthetic PC (a 64-byte "code
 * block") plus a symbolic name. The sites form one compiled table,
 * core/sites.def: a site's PC is kCodeBase + its index * kBlockBytes,
 * the same in every process of one build, so a trace records PCs and
 * no names, and a trace file carries only siteTableDigest() to prove
 * its PCs mean the same sites. The dependence profiler resolves PCs
 * back to names so tuning output reads like
 * "btree.insert.leaf_header <- log.lsn_alloc".
 */

#ifndef CORE_SITE_H
#define CORE_SITE_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "base/dethash.h"
#include "base/log.h"
#include "base/types.h"

namespace tlsim {

/** Index of a site in the compiled table. */
enum class SiteId : std::uint32_t {
#define TLSIM_SITE(id, name) id,
#include "core/sites.def"
#undef TLSIM_SITE
};

/** Site names, in table (PC) order. */
inline constexpr std::string_view kSiteNames[] = {
#define TLSIM_SITE(id, name) name,
#include "core/sites.def"
#undef TLSIM_SITE
};

inline constexpr std::size_t kSiteCount = std::size(kSiteNames);

/** Base address of the synthetic code segment. */
inline constexpr Pc kCodeBase = 0x0040'0000;
/** Bytes of synthetic code per site (one I-cache line's worth+). */
inline constexpr Pc kBlockBytes = 64;

constexpr Pc
sitePc(SiteId id)
{
    return kCodeBase + static_cast<Pc>(id) * kBlockBytes;
}

/** A site's name, or "<pc 0x...>" for a PC outside the table. */
inline std::string
siteName(Pc pc)
{
    if (pc >= kCodeBase && (pc - kCodeBase) % kBlockBytes == 0 &&
        (pc - kCodeBase) / kBlockBytes < kSiteCount)
        return std::string(kSiteNames[(pc - kCodeBase) / kBlockBytes]);
    return strfmt("<pc 0x%x>", pc);
}

/**
 * Digest of the length-prefixed names in table order: equal digests
 * mean every PC names the same site. Stored in trace file headers.
 */
inline std::uint64_t
siteTableDigest()
{
    det::Hash h;
    for (std::string_view name : kSiteNames) {
        h.u64(name.size());
        h.bytes(name.data(), name.size());
    }
    return h.value();
}

/**
 * A static code site. Declare it where it is used,
 * `constexpr Site s{SiteId::Name};`, and pass `s.pc` to the tracer.
 */
struct Site
{
    constexpr explicit Site(SiteId id) : pc(sitePc(id)) {}

    Pc pc;
};

} // namespace tlsim

#endif // CORE_SITE_H
