#include "sim/traceio.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "base/log.h"
#include "base/narrow.h"
#include "core/site.h"
#include "sim/varint.h"

namespace tlsim {
namespace sim {

namespace {

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
get(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        panic("trace file truncated");
    return v;
}

/** Bulk read (one stream call per column block); panics like get<>. */
void
getBytes(std::istream &is, void *dst, std::size_t bytes)
{
    is.read(static_cast<char *>(dst),
            static_cast<std::streamsize>(bytes));
    if (bytes != 0 && !is)
        panic("trace file truncated");
}

// ----- v4 columnar epoch encoding ------------------------------------
//
// Per epoch the record fields are stored as separate streams (all ops,
// then all sizes, ...) with the 64-bit addr column zigzag-varint coded
// as deltas from the previous record's addr. Addresses in a
// transaction are near-sequential, so most deltas fit in 1-2 bytes;
// the column shrinks from 8 bytes to ~1.3 per record.
//
// The decode side works in blocks of varint::kBlock records: each
// fixed-width column is pulled with one stream read per block and
// scattered from a small SoA scratch buffer, and the varint address
// column goes through varint::decodeBlock over a read-ahead buffer
// (the branchless batch decoder). The stream is repositioned after
// the column so read-ahead never leaks into the next field.

void
putVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        put<std::uint8_t>(os, truncateNarrow<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    put<std::uint8_t>(os, checkedNarrow<std::uint8_t>(v));
}

/** Report a malformed varint (shared by both decode paths). */
bool
rejectVarint(varint::Status st)
{
    if (st == varint::Status::TooLong)
        inform("trace file rejected: varint longer than 10 bytes");
    else
        inform("trace file rejected: varint payload exceeds 64 bits");
    return false;
}

/**
 * Decode one varint into `*out`; false (after inform) if the encoding
 * is malformed. The last (10th) byte may only contribute the single
 * remaining bit 63 — a naive decoder would shift the full 7-bit
 * payload and silently discard the six bits past the top of the word.
 */
bool
getVarint(std::istream &is, std::uint64_t *out)
{
    std::array<std::uint8_t, varint::kMaxBytes> buf;
    std::size_t have = 0;
    for (;;) {
        std::size_t used = 0;
        varint::Status st =
            varint::decodeOne(buf.data(), have, out, &used);
        if (st == varint::Status::Ok)
            return true;
        if (st != varint::Status::NeedMore)
            return rejectVarint(st);
        buf[have++] = get<std::uint8_t>(is);
    }
}

/**
 * Decode the epoch's address column: `n` zigzag varint deltas,
 * accumulated into `recs[i].addr`. Batch-decodes in blocks of
 * varint::kBlock over a read-ahead buffer when the stream is seekable
 * (unused read-ahead is seeked back); falls back to the one-record
 * stream decoder otherwise. False (after inform) on malformed input;
 * panics on truncation like every other trace read.
 */
bool
getAddrColumn(std::istream &is, std::size_t n, TraceRecord *recs)
{
    Addr prev = 0;
    if (n == 0)
        return true;
    if (is.tellg() == std::istream::pos_type(-1)) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t z = 0;
            if (!getVarint(is, &z))
                return false;
            prev += static_cast<std::uint64_t>(varint::unzigzag(z));
            recs[i].addr = prev;
        }
        return true;
    }

    std::vector<std::uint8_t> buf(std::size_t{64} << 10);
    std::size_t len = 0, pos = 0;
    std::array<std::uint64_t, varint::kBlock> z;
    std::size_t done = 0;
    while (done < n) {
        std::size_t want =
            std::min<std::size_t>(varint::kBlock, n - done);
        std::size_t decoded = 0, used = 0;
        varint::Status st = varint::decodeBlock(
            buf.data() + pos, len - pos, want, z.data(), &decoded,
            &used);
        pos += used;
        for (std::size_t i = 0; i < decoded; ++i) {
            prev += static_cast<std::uint64_t>(varint::unzigzag(z[i]));
            recs[done + i].addr = prev;
        }
        done += decoded;
        if (st == varint::Status::Ok)
            continue;
        if (st != varint::Status::NeedMore)
            return rejectVarint(st);
        // Refill: keep the partial varint's bytes at the front.
        std::memmove(buf.data(), buf.data() + pos, len - pos);
        len -= pos;
        pos = 0;
        is.read(reinterpret_cast<char *>(buf.data()) + len,
                static_cast<std::streamsize>(buf.size() - len));
        std::size_t got = static_cast<std::size_t>(is.gcount());
        if (got == 0)
            panic("trace file truncated");
        len += got;
    }
    // Return the unconsumed read-ahead so the stream sits exactly at
    // the end of the column (clear a possible eofbit first; seekg on
    // a failed stream would be a no-op).
    is.clear();
    is.seekg(-static_cast<std::streamoff>(len - pos), std::ios::cur);
    if (!is)
        panic("trace file: cannot rewind read-ahead");
    return true;
}

void
putEpoch(std::ostream &os, const EpochTrace &e)
{
    const std::size_t n = e.records.size();
    put<std::uint64_t>(os, n);
    for (const TraceRecord &r : e.records)
        put<std::uint8_t>(os, checkedNarrow<std::uint8_t>(
                                  static_cast<unsigned>(r.op)));
    for (const TraceRecord &r : e.records)
        put<std::uint8_t>(os, r.size);
    for (const TraceRecord &r : e.records)
        put<std::uint16_t>(os, r.aux);
    for (const TraceRecord &r : e.records)
        put<std::uint32_t>(os, r.pc);
    Addr prev = 0;
    for (const TraceRecord &r : e.records) {
        // The delta wraps modulo 2^64 by design: the decoder's
        // matching unsigned addition reconstructs the exact address.
        std::uint64_t delta = r.addr - prev;
        putVarint(os, varint::zigzag(static_cast<std::int64_t>(delta)));
        prev = r.addr;
    }
    put<std::uint64_t>(os, e.instCount);
    put<std::uint64_t>(os, e.specInstCount);
    put<std::uint64_t>(os, e.escapeSpans.size());
    for (auto [b, en] : e.escapeSpans) {
        put<std::uint32_t>(os, b);
        put<std::uint32_t>(os, en);
    }
}

/** Read one epoch; false (after inform) if structurally malformed. */
bool
getEpoch(std::istream &is, EpochTrace *out)
{
    EpochTrace e;
    auto n = get<std::uint64_t>(is);
    if (n > (std::uint64_t{1} << 32)) {
        inform("trace file rejected: %llu records in one epoch",
               static_cast<unsigned long long>(n));
        return false;
    }
    e.records.resize(n);
    TraceRecord *recs = e.records.data();
    constexpr std::size_t B = varint::kBlock;
    const std::uint8_t max_op = checkedNarrow<std::uint8_t>(
        static_cast<unsigned>(TraceOp::EscapeEnd));
    std::array<std::uint8_t, B> col8;
    for (std::size_t base = 0; base < n; base += B) {
        std::size_t blk = std::min<std::size_t>(B, n - base);
        getBytes(is, col8.data(), blk);
        for (std::size_t i = 0; i < blk; ++i) {
            if (col8[i] > max_op) {
                inform("trace file rejected: bad opcode %u", col8[i]);
                return false;
            }
            recs[base + i].op = static_cast<TraceOp>(col8[i]);
        }
    }
    for (std::size_t base = 0; base < n; base += B) {
        std::size_t blk = std::min<std::size_t>(B, n - base);
        getBytes(is, col8.data(), blk);
        for (std::size_t i = 0; i < blk; ++i) {
            TraceRecord &r = recs[base + i];
            r.size = col8[i];
            if ((r.op == TraceOp::Load || r.op == TraceOp::Store) &&
                (r.size == 0 || r.size > 128)) {
                inform("trace file rejected: access size %u", r.size);
                return false;
            }
        }
    }
    std::array<std::uint16_t, B> col16;
    for (std::size_t base = 0; base < n; base += B) {
        std::size_t blk = std::min<std::size_t>(B, n - base);
        getBytes(is, col16.data(), blk * 2);
        for (std::size_t i = 0; i < blk; ++i)
            recs[base + i].aux = col16[i];
    }
    std::array<std::uint32_t, B> col32;
    for (std::size_t base = 0; base < n; base += B) {
        std::size_t blk = std::min<std::size_t>(B, n - base);
        getBytes(is, col32.data(), blk * 4);
        for (std::size_t i = 0; i < blk; ++i)
            recs[base + i].pc = col32[i];
    }
    if (!getAddrColumn(is, n, recs))
        return false;
    e.instCount = get<std::uint64_t>(is);
    e.specInstCount = get<std::uint64_t>(is);
    auto spans = get<std::uint64_t>(is);
    if (spans > n) {
        inform("trace file rejected: %llu escape spans for %llu records",
               static_cast<unsigned long long>(spans),
               static_cast<unsigned long long>(n));
        return false;
    }
    std::uint64_t prev_end = 0;
    for (std::uint64_t i = 0; i < spans; ++i) {
        auto b = get<std::uint32_t>(is);
        auto en = get<std::uint32_t>(is);
        if (b > en || en >= n || (i > 0 && b <= prev_end)) {
            inform("trace file rejected: escape span [%u,%u] unordered "
                   "or out of bounds (%llu records)",
                   b, en, static_cast<unsigned long long>(n));
            return false;
        }
        if (e.records[b].op != TraceOp::EscapeBegin ||
            e.records[en].op != TraceOp::EscapeEnd) {
            inform("trace file rejected: escape span [%u,%u] not "
                   "anchored on EscapeBegin/EscapeEnd",
                   b, en);
            return false;
        }
        prev_end = en;
        e.escapeSpans.emplace_back(b, en);
    }
    *out = std::move(e);
    return true;
}

} // namespace

void
saveTrace(std::ostream &os, const WorkloadTrace &w)
{
    put<std::uint32_t>(os, kTraceMagic);
    put<std::uint32_t>(os, kTraceVersion);

    put<std::uint64_t>(os, siteTableDigest());

    put<std::uint64_t>(os, w.txns.size());
    for (const TransactionTrace &txn : w.txns) {
        put<std::uint64_t>(os, txn.sections.size());
        for (const TraceSection &sec : txn.sections) {
            put<std::uint8_t>(os, sec.parallel ? 1 : 0);
            put<std::uint64_t>(os, sec.epochs.size());
            for (const EpochTrace &e : sec.epochs)
                putEpoch(os, e);
        }
    }
}

bool
loadTrace(std::istream &is, WorkloadTrace *out)
{
    std::uint32_t magic = 0, version = 0;
    is.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is || magic != kTraceMagic || version != kTraceVersion)
        return false;

    // PCs index the compiled site table: a file written against
    // another table names other sites.
    if (get<std::uint64_t>(is) != siteTableDigest()) {
        inform("trace file rejected: written against another site table");
        return false;
    }

    WorkloadTrace w;
    auto txns = get<std::uint64_t>(is);
    for (std::uint64_t t = 0; t < txns; ++t) {
        TransactionTrace txn;
        auto secs = get<std::uint64_t>(is);
        for (std::uint64_t s = 0; s < secs; ++s) {
            TraceSection sec;
            sec.parallel = get<std::uint8_t>(is) != 0;
            auto epochs = get<std::uint64_t>(is);
            for (std::uint64_t e = 0; e < epochs; ++e) {
                EpochTrace et;
                if (!getEpoch(is, &et))
                    return false;
                sec.epochs.push_back(std::move(et));
            }
            txn.sections.push_back(std::move(sec));
        }
        w.txns.push_back(std::move(txn));
    }
    *out = std::move(w);
    return true;
}

void
saveTraceFile(const std::string &path, const WorkloadTrace &w)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot write trace file %s", path.c_str());
    saveTrace(os, w);
    if (!os)
        fatal("error writing trace file %s", path.c_str());
}

bool
loadTraceFile(const std::string &path, WorkloadTrace *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot read trace file %s", path.c_str());
    return loadTrace(is, out);
}

} // namespace sim
} // namespace tlsim
