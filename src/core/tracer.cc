#include "core/tracer.h"

#include <algorithm>

#include "base/log.h"
#include "base/stats.h"
#include "core/site.h"

namespace tlsim {

Tracer::Tracer(Options opts) : opts_(opts), geom_(opts.lineBytes) {}

EpochTrace &
Tracer::cur()
{
    return workload_.txns.back().sections.back().epochs.back();
}

void
Tracer::append(const TraceRecord &rec)
{
    cur().records.push_back(rec);
}

void
Tracer::mapRegion(const void *p, std::size_t bytes, Addr synth)
{
    if (bytes == 0 || synth + bytes > kSpaceEnd)
        panic("tracer: region of %zu bytes at synthetic 0x%llx does not "
              "fit the 4 GB space",
              bytes, static_cast<unsigned long long>(synth));
    Region r{reinterpret_cast<std::uintptr_t>(p),
             reinterpret_cast<std::uintptr_t>(p) + bytes, synth};
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), r.real,
        [](std::uintptr_t a, const Region &x) { return a < x.real; });
    if ((it != regions_.end() && it->real < r.end) ||
        (it != regions_.begin() && std::prev(it)->end > r.real))
        panic("tracer: region %p (%zu bytes) overlaps a registered one",
              p, bytes);
    regions_.insert(it, r);
    lastRegion_ = 0;
}

void
Tracer::unmapRegion(const void *p)
{
    auto real = reinterpret_cast<std::uintptr_t>(p);
    auto it = std::lower_bound(
        regions_.begin(), regions_.end(), real,
        [](const Region &x, std::uintptr_t a) { return x.real < a; });
    if (it == regions_.end() || it->real != real)
        panic("tracer: unmapping unregistered region %p", p);
    regions_.erase(it);
    lastRegion_ = 0;
}

Addr
Tracer::synthetic(Pc pc, const void *p, std::size_t size)
{
    auto a = reinterpret_cast<std::uintptr_t>(p);
    if (lastRegion_ < regions_.size()) {
        const Region &r = regions_[lastRegion_];
        if (a >= r.real && a + size <= r.end)
            return r.synth + (a - r.real);
    }
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), a,
        [](std::uintptr_t x, const Region &r) { return x < r.real; });
    if (it == regions_.begin() || a + size > std::prev(it)->end)
        panic("tracer: %zu-byte access at %p (site %s) is outside every "
              "registered region",
              size, p, siteName(pc).c_str());
    --it;
    lastRegion_ = static_cast<std::size_t>(it - regions_.begin());
    return it->synth + (a - it->real);
}

void
Tracer::memAccess(TraceOp op, Pc pc, const void *p, std::size_t size,
                  bool dependent)
{
    if (size == 0)
        return;
    Addr a = synthetic(pc, p, size);
    // Split accesses at line boundaries so the replay engine never sees
    // a record spanning two lines. The first chunk carries the whole
    // access's instruction cost (a run of 8-byte moves) and, for
    // loads, the dependent flag; the rest are continuation accesses.
    std::uint16_t insts = static_cast<std::uint16_t>((size + 7) / 8);
    bool first = true;
    while (size > 0) {
        Addr line_end = geom_.lineAddr(a) + geom_.lineBytes();
        std::size_t chunk = std::min<std::size_t>(size, line_end - a);
        std::uint16_t aux = first
                                ? static_cast<std::uint16_t>(
                                      insts << kAuxInstShift)
                                : 0;
        if (op == TraceOp::Load && dependent && first)
            aux |= kAuxDependent;
        append({op, static_cast<std::uint8_t>(chunk), aux, pc, a});
        a += chunk;
        size -= chunk;
        first = false;
    }
}

void
Tracer::txnBegin()
{
    if (capturing_)
        panic("txnBegin inside an open transaction");
    workload_.txns.emplace_back();
    capturing_ = true;
    inLoop_ = false;
    pendingLoop_ = false;
    escapeDepth_ = 0;
    openSection(false);
}

void
Tracer::openSection(bool parallel)
{
    auto &txn = workload_.txns.back();
    if (!txn.sections.empty())
        closeEpoch();
    txn.sections.emplace_back();
    txn.sections.back().parallel = parallel;
    openEpoch(parallel);
}

void
Tracer::openEpoch(bool add_spawn_overhead)
{
    auto &sec = workload_.txns.back().sections.back();
    sec.epochs.emplace_back();
    // Epochs run hundreds of records; seed from the arena when it has
    // a salvaged buffer, else pre-size to skip the early doubling
    // reallocations on the capture hot path.
    ++captureEpochs_;
    if (spareRecords_.capacity() >= kRecordsReserve) {
        spareRecords_.clear();
        sec.epochs.back().records = std::move(spareRecords_);
        spareRecords_ = std::vector<TraceRecord>{};
        ++captureBufReuses_;
    } else {
        sec.epochs.back().records.reserve(kRecordsReserve);
    }
    if (add_spawn_overhead && opts_.parallelMode &&
        opts_.spawnOverheadInsts > 0) {
        constexpr Site spawn_site{SiteId::TlsSpawnEpoch};
        append({TraceOp::Compute, 0,
                static_cast<std::uint16_t>(ComputeClass::Int),
                spawn_site.pc, opts_.spawnOverheadInsts});
    }
}

void
Tracer::closeEpoch()
{
    EpochTrace &e = cur();
    e.instCount = 0;
    e.specInstCount = 0;
    e.escapeSpans.clear();
    unsigned depth = 0;
    std::uint32_t begin_idx = 0;
    for (std::uint32_t i = 0; i < e.records.size(); ++i) {
        const TraceRecord &r = e.records[i];
        InstCount n = recordInsts(r);
        e.instCount += n;
        if (r.op == TraceOp::EscapeBegin) {
            if (depth++ == 0)
                begin_idx = i;
        } else if (r.op == TraceOp::EscapeEnd) {
            if (depth == 0)
                panic("unbalanced EscapeEnd in epoch trace");
            if (--depth == 0)
                e.escapeSpans.emplace_back(begin_idx, i);
        } else if (depth == 0) {
            e.specInstCount += n;
        }
    }
    if (depth != 0)
        panic("escaped region left open at end of epoch");
}

void
Tracer::txnEnd()
{
    if (!capturing_)
        panic("txnEnd without txnBegin");
    if (inLoop_ || pendingLoop_)
        panic("txnEnd inside a parallel loop");
    if (escapeDepth_ != 0)
        panic("txnEnd inside an escaped region");
    closeEpoch();
    // Drop empty trailing/intermediate sequential sections, salvaging
    // the largest record buffer for the arena.
    auto &txn = workload_.txns.back();
    std::erase_if(txn.sections, [this](TraceSection &s) {
        bool drop = !s.parallel && s.epochs.size() == 1 &&
                    s.epochs[0].records.empty();
        if (drop && s.epochs[0].records.capacity() >
                        spareRecords_.capacity())
            spareRecords_ = std::move(s.epochs[0].records);
        return drop;
    });
    capturing_ = false;
}

void
Tracer::loopBegin()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (inLoop_ || pendingLoop_)
        panic("nested parallel loops are not supported");
    if (escapeDepth_ != 0)
        panic("loopBegin inside an escaped region");
    pendingLoop_ = true;
}

void
Tracer::iterBegin()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (pendingLoop_) {
        pendingLoop_ = false;
        inLoop_ = true;
        openSection(true);
        return;
    }
    if (!inLoop_)
        panic("iterBegin outside a parallel loop");
    if (escapeDepth_ != 0)
        panic("iterBegin inside an escaped region");
    closeEpoch();
    openEpoch(true);
}

void
Tracer::loopEnd()
{
    if (!capturing_ || !opts_.parallelMode)
        return;
    if (pendingLoop_) {
        // Loop body never ran; nothing was opened.
        pendingLoop_ = false;
        return;
    }
    if (!inLoop_)
        panic("loopEnd without loopBegin");
    if (escapeDepth_ != 0)
        panic("loopEnd inside an escaped region");
    inLoop_ = false;
    openSection(false);
}

void
Tracer::latchAcquire(Pc pc, std::uint64_t latch_id)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("latchAcquire outside an escaped region (site %s)",
              siteName(pc).c_str());
    append({TraceOp::LatchAcquire, 0, 0, pc, latch_id});
}

void
Tracer::latchRelease(Pc pc, std::uint64_t latch_id)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("latchRelease outside an escaped region (site %s)",
              siteName(pc).c_str());
    append({TraceOp::LatchRelease, 0, 0, pc, latch_id});
}

void
Tracer::escapeBegin(Pc pc)
{
    if (!capturing_)
        return;
    if (escapeDepth_++ == 0)
        append({TraceOp::EscapeBegin, 0, 0, pc, 0});
}

void
Tracer::escapeEnd(Pc pc)
{
    if (!capturing_)
        return;
    if (escapeDepth_ == 0)
        panic("escapeEnd without escapeBegin");
    if (--escapeDepth_ == 0)
        append({TraceOp::EscapeEnd, 0, 0, pc, 0});
}

WorkloadTrace
Tracer::takeWorkload()
{
    if (capturing_)
        panic("takeWorkload inside an open transaction");
    WorkloadTrace out = std::move(workload_);
    workload_ = WorkloadTrace{};
    // Loop-structure state is per-transaction, but an aborted capture
    // (txnEnd never reached) would leak it into the next workload's
    // first transaction: a stale inLoop_ turns its opening section
    // parallel. Recycle it with the capture.
    inLoop_ = false;
    pendingLoop_ = false;
    escapeDepth_ = 0;
    auto &gc = stats::GlobalCounters::instance();
    gc.add("replay.captureEpochs", captureEpochs_);
    gc.add("replay.captureBufReuses", captureBufReuses_);
    captureEpochs_ = 0;
    captureBufReuses_ = 0;
    return out;
}

TracedRegion::TracedRegion(Tracer &tracer, const void *base,
                           std::size_t bytes, std::size_t align)
    : TracedRegion((tracer.nextData_ + align - 1) / align * align, tracer,
                   base)
{
    if (synth_ + bytes > Tracer::kFramesBase)
        panic("tracer: data area full (%zu more bytes)", bytes);
    tracer.mapRegion(base, bytes, synth_);
    tracer.nextData_ = synth_ + bytes;
}

TracedRegion
TracedRegion::frames(Tracer &tracer, const void *base,
                     std::uint64_t first_page, std::size_t pages,
                     std::size_t page_bytes)
{
    Addr synth = Tracer::kFramesBase + first_page * page_bytes;
    tracer.mapRegion(base, pages * page_bytes, synth);
    return TracedRegion(synth, tracer, base);
}

TracedRegion &
TracedRegion::operator=(TracedRegion &&o) noexcept
{
    if (this != &o) {
        if (tracer_)
            tracer_->unmapRegion(base_);
        tracer_ = o.tracer_;
        base_ = o.base_;
        synth_ = o.synth_;
        o.tracer_ = nullptr;
    }
    return *this;
}

TracedRegion::~TracedRegion()
{
    if (tracer_)
        tracer_->unmapRegion(base_);
}

} // namespace tlsim
