#include "sim/traceio.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include "base/dethash.h"
#include "base/log.h"
#include "core/site.h"
#include "sim/varint.h"

namespace tlsim {
namespace sim {

namespace {

// Fixed-width fields hold their in-memory bytes. The header is magic,
// version and site-table digest; the trailer is the digest of every
// byte before it.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kTrailerBytes = 8;

// ----- v4 columnar epoch encoding ------------------------------------
//
// Per epoch the record fields are stored as separate columns (all ops,
// then all sizes, all aux words, all PCs) with the 64-bit addr column
// zigzag-varint coded as deltas from the previous record's addr.
// Addresses in a transaction are near-sequential, so most deltas fit
// in 1-2 bytes; the column shrinks from 8 bytes to ~1.3 per record.

template <typename T>
void
append(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

/** Append the column of `field` over every record, in its own bytes. */
template <typename M>
void
appendColumn(std::string &out, const std::vector<TraceRecord> &recs,
             M TraceRecord::*field)
{
    std::size_t at = out.size();
    out.resize(at + recs.size() * sizeof(M));
    char *p = out.data() + at;
    for (const TraceRecord &r : recs) {
        std::memcpy(p, &(r.*field), sizeof(M));
        p += sizeof(M);
    }
}

void
appendEpoch(std::string &out, const EpochTrace &e)
{
    const std::vector<TraceRecord> &recs = e.records;
    append<std::uint64_t>(out, recs.size());
    appendColumn(out, recs, &TraceRecord::op);   // u8
    appendColumn(out, recs, &TraceRecord::size); // u8
    appendColumn(out, recs, &TraceRecord::aux);  // u16
    appendColumn(out, recs, &TraceRecord::pc);   // u32

    std::size_t at = out.size();
    out.resize(at + recs.size() * varint::kMaxBytes);
    auto *col = reinterpret_cast<std::uint8_t *>(out.data() + at);
    std::size_t len = 0;
    Addr prev = 0;
    for (const TraceRecord &r : recs) {
        // The delta wraps modulo 2^64 by design: the decoder's
        // matching unsigned addition reconstructs the exact address.
        std::uint64_t delta = r.addr - prev;
        len += varint::encode(
            col + len, varint::zigzag(static_cast<std::int64_t>(delta)));
        prev = r.addr;
    }
    out.resize(at + len);

    append<std::uint64_t>(out, e.instCount);
    append<std::uint64_t>(out, e.specInstCount);
    append<std::uint64_t>(out, e.escapeSpans.size());
    for (auto [b, en] : e.escapeSpans) {
        append<std::uint32_t>(out, b);
        append<std::uint32_t>(out, en);
    }
}

/**
 * An upper bound on the bytes of `w`'s file (every varint at its
 * longest). Reserving it makes the encode one allocation; the pages
 * past the bytes written are never touched.
 */
std::size_t
encodedBound(const WorkloadTrace &w)
{
    std::size_t n = kHeaderBytes + 8 + kTrailerBytes;
    for (const TransactionTrace &txn : w.txns) {
        n += 8;
        for (const TraceSection &sec : txn.sections) {
            n += 9;
            for (const EpochTrace &e : sec.epochs)
                n += 32 + e.records.size() * (8 + varint::kMaxBytes) +
                     e.escapeSpans.size() * 8;
        }
    }
    return n;
}

/**
 * Bounds-checked decode of a trace body: every read checks the bytes
 * left before the trailer, and the first defect stops the decode with
 * its reason in `why`. Besides truncation it rejects bad opcodes,
 * memory accesses outside 1..128 bytes, malformed varints, escape
 * spans that are unordered, overlapping, out of bounds or not
 * anchored on EscapeBegin/EscapeEnd records, and trailing bytes.
 */
class Decoder
{
  public:
    Decoder(std::string_view bytes, std::size_t begin, std::size_t end)
        : base_(reinterpret_cast<const std::uint8_t *>(bytes.data())),
          pos_(begin), end_(end)
    {
    }

    bool workload(WorkloadTrace *out);

    std::string why; ///< the first defect found

  private:
    std::size_t left() const { return end_ - pos_; }

    bool
    fail(std::string reason)
    {
        why = std::move(reason);
        return false;
    }

    /** The next `n` bytes, or nullptr (after fail) if fewer are left. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > left()) {
            fail(strfmt("truncated at offset %zu", pos_));
            return nullptr;
        }
        const std::uint8_t *p = base_ + pos_;
        pos_ += n;
        return p;
    }

    template <typename T>
    bool
    read(T *v)
    {
        const std::uint8_t *p = take(sizeof(T));
        if (p)
            std::memcpy(v, p, sizeof(T));
        return p != nullptr;
    }

    bool epoch(EpochTrace *out);

    const std::uint8_t *base_;
    std::size_t pos_, end_;
    std::vector<std::uint64_t> deltas_; ///< addr column scratch
};

bool
Decoder::epoch(EpochTrace *out)
{
    std::uint64_t n = 0;
    if (!read(&n))
        return false;
    // A record takes at least nine bytes (four fixed columns and one
    // varint): a count the body cannot hold is rejected before it
    // sizes an allocation.
    if (n > left() / 9)
        return fail(strfmt("truncated: %llu records at offset %zu",
                           static_cast<unsigned long long>(n), pos_));
    out->records.resize(n);
    TraceRecord *recs = out->records.data();
    const std::uint8_t *ops = take(8 * n);
    if (!ops)
        return false;
    const std::uint8_t *sizes = ops + n, *aux = ops + 2 * n,
                       *pcs = ops + 4 * n;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &r = recs[i];
        if (ops[i] > static_cast<unsigned>(TraceOp::EscapeEnd))
            return fail(strfmt("bad opcode %u", ops[i]));
        r.op = static_cast<TraceOp>(ops[i]);
        r.size = sizes[i];
        if ((r.op == TraceOp::Load || r.op == TraceOp::Store) &&
            (r.size == 0 || r.size > 128))
            return fail(strfmt("access size %u", r.size));
        std::memcpy(&r.aux, aux + 2 * i, sizeof r.aux);
        std::memcpy(&r.pc, pcs + 4 * i, sizeof r.pc);
    }

    deltas_.resize(n);
    std::size_t decoded = 0, used = 0;
    varint::Status st = varint::decodeBlock(base_ + pos_, left(), n,
                                            deltas_.data(), &decoded,
                                            &used);
    if (st != varint::Status::Ok)
        return fail(strfmt(
            "%s in the address column at offset %zu",
            st == varint::Status::NeedMore ? "truncated"
            : st == varint::Status::TooLong ? "varint over 10 bytes"
                                            : "varint past 64 bits",
            pos_ + used));
    pos_ += used;
    Addr prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        prev += static_cast<std::uint64_t>(varint::unzigzag(deltas_[i]));
        recs[i].addr = prev;
    }

    std::uint64_t spans = 0;
    if (!read(&out->instCount) || !read(&out->specInstCount) ||
        !read(&spans))
        return false;
    if (spans > n)
        return fail(strfmt("%llu escape spans for %llu records",
                           static_cast<unsigned long long>(spans),
                           static_cast<unsigned long long>(n)));
    std::uint32_t prev_end = 0;
    for (std::uint64_t i = 0; i < spans; ++i) {
        std::uint32_t b = 0, en = 0;
        if (!read(&b) || !read(&en))
            return false;
        if (b > en || en >= n || (i > 0 && b <= prev_end))
            return fail(strfmt("escape span [%u,%u] unordered or out of "
                               "bounds (%llu records)",
                               b, en, static_cast<unsigned long long>(n)));
        if (recs[b].op != TraceOp::EscapeBegin ||
            recs[en].op != TraceOp::EscapeEnd)
            return fail(strfmt("escape span [%u,%u] not anchored on "
                               "EscapeBegin/EscapeEnd",
                               b, en));
        prev_end = en;
        out->escapeSpans.emplace_back(b, en);
    }
    return true;
}

bool
Decoder::workload(WorkloadTrace *out)
{
    WorkloadTrace w;
    std::uint64_t txns = 0;
    if (!read(&txns))
        return false;
    for (std::uint64_t t = 0; t < txns; ++t) {
        TransactionTrace &txn = w.txns.emplace_back();
        std::uint64_t secs = 0;
        if (!read(&secs))
            return false;
        for (std::uint64_t s = 0; s < secs; ++s) {
            TraceSection &sec = txn.sections.emplace_back();
            std::uint8_t parallel = 0;
            std::uint64_t epochs = 0;
            if (!read(&parallel) || !read(&epochs))
                return false;
            sec.parallel = parallel != 0;
            for (std::uint64_t i = 0; i < epochs; ++i)
                if (!epoch(&sec.epochs.emplace_back()))
                    return false;
        }
    }
    if (left() != 0)
        return fail(strfmt("%zu bytes after the last transaction", left()));
    *out = std::move(w);
    return true;
}

template <typename T>
T
fieldAt(std::string_view bytes, std::size_t offset)
{
    T v{};
    std::memcpy(&v, bytes.data() + offset, sizeof v);
    return v;
}

/** The bytes carry the trace magic and another format version. */
bool
otherVersion(std::string_view bytes)
{
    return bytes.size() >= 8 &&
           fieldAt<std::uint32_t>(bytes, 0) == kTraceMagic &&
           fieldAt<std::uint32_t>(bytes, 4) != kTraceVersion;
}

/** Read the file at `path` into `*bytes`; "" or why it could not. */
std::string
readFile(const std::string &path, std::string *bytes)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    std::FILE *f = ec ? nullptr : std::fopen(path.c_str(), "rb");
    if (!f)
        return "cannot open: " +
               (ec ? ec.message() : std::string(std::strerror(errno)));
    bytes->resize(size);
    const bool whole = std::fread(bytes->data(), 1, size, f) == size;
    std::fclose(f);
    return whole ? "" : "cannot read the whole file";
}

} // namespace

std::string
encodeTrace(const WorkloadTrace &w)
{
    std::string out;
    out.reserve(encodedBound(w));
    append<std::uint32_t>(out, kTraceMagic);
    append<std::uint32_t>(out, kTraceVersion);
    append<std::uint64_t>(out, siteTableDigest());
    append<std::uint64_t>(out, w.txns.size());
    for (const TransactionTrace &txn : w.txns) {
        append<std::uint64_t>(out, txn.sections.size());
        for (const TraceSection &sec : txn.sections) {
            append<std::uint8_t>(out, sec.parallel ? 1 : 0);
            append<std::uint64_t>(out, sec.epochs.size());
            for (const EpochTrace &e : sec.epochs)
                appendEpoch(out, e);
        }
    }
    det::Hash h;
    h.bytes(out.data(), out.size());
    append<std::uint64_t>(out, h.value());
    return out;
}

std::string
decodeTrace(std::string_view bytes, WorkloadTrace *out)
{
    // The digest is checked before anything is decoded, so a damaged
    // or truncated file never reaches the decoder; the version word
    // only names a likelier cause than damage.
    if (bytes.size() < kHeaderBytes + kTrailerBytes)
        return "digest mismatch: too short for a header and digest";
    const std::size_t body_end = bytes.size() - kTrailerBytes;
    det::Hash h;
    h.bytes(bytes.data(), body_end);
    const bool sealed = h.value() == fieldAt<std::uint64_t>(bytes, body_end);
    if (otherVersion(bytes))
        return strfmt("%sformat version %u, this build reads %u",
                      sealed ? "" : "digest mismatch: ",
                      fieldAt<std::uint32_t>(bytes, 4), kTraceVersion);
    if (!sealed)
        return "digest mismatch: a damaged, truncated or foreign file";
    if (fieldAt<std::uint32_t>(bytes, 0) != kTraceMagic)
        return "not a trace file";
    // PCs index the compiled site table: a file written against
    // another table names other sites.
    if (fieldAt<std::uint64_t>(bytes, 8) != siteTableDigest())
        return "written against another site table";

    Decoder d(bytes, kHeaderBytes, body_end);
    return d.workload(out) ? "" : d.why;
}

void
saveTraceFile(const std::string &path, const WorkloadTrace &w)
{
    const std::string bytes = encodeTrace(w);
    // A unique temporary beside the target, renamed into place: a
    // reader sees the old file or all of the new one. Its name does
    // not end in ".trace", so `*.trace` globs never match it.
    std::string tmp = path + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    std::FILE *f = fd < 0 ? nullptr : ::fdopen(fd, "wb");
    bool ok = f && ::fchmod(fd, 0644) == 0 &&
              std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = f && std::fclose(f) == 0 && ok;
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        fatal("cannot write trace file %s: %s", path.c_str(),
              std::strerror(err));
    }
}

std::string
readTraceFile(const std::string &path, WorkloadTrace *out)
{
    std::string bytes;
    std::string why = readFile(path, &bytes);
    return why.empty() ? decodeTrace(bytes, out) : why;
}

bool
loadTraceFile(const std::string &path, WorkloadTrace *out)
{
    std::string bytes;
    std::string why = readFile(path, &bytes);
    if (why.empty())
        why = decodeTrace(bytes, out);
    if (why.empty())
        return true;
    (otherVersion(bytes) ? inform : warn)("%s: %s", path.c_str(),
                                          why.c_str());
    return false;
}

} // namespace sim
} // namespace tlsim
