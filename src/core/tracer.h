/**
 * @file
 * Capture tracer: the instrumentation channel between the natively
 * executing database / workload code and the trace-driven simulator.
 *
 * The workload calls txnBegin()/txnEnd() around each transaction and
 * loopBegin()/iterBegin()/loopEnd() around the loop it wants
 * parallelized; everything else (load/store/compute/branch/latch) is
 * called from the database as it runs. When `parallelMode` is false the
 * loop markers are ignored and the capture is a plain sequential trace
 * (the paper's SEQUENTIAL binary); when true, iterations become epochs
 * and each epoch is charged the TLS spawn overhead (the paper's
 * TLS-SEQ / parallel binaries).
 *
 * The tracer alone knows the address layout. A trace records no heap
 * or stack address: each traced pointer is mapped, through the regions
 * its owners registered (TracedRegion), to a fixed synthetic address
 * below 4 GB, so a capture is a pure function of its workload, seeds
 * and build. The synthetic space holds the site PCs from kCodeBase
 * (core/site.h), the registered objects from kDataBase, laid out
 * back to back in registration order like a bump allocator, and the
 * buffer pool's page frames at kFramesBase + page id * page size.
 */

#ifndef CORE_TRACER_H
#define CORE_TRACER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/addr.h"
#include "base/types.h"
#include "core/trace.h"

namespace tlsim {

/** Records the execution of instrumented code into a WorkloadTrace. */
class Tracer
{
  public:
    struct Options
    {
        bool parallelMode = false;    ///< honor loop markers
        unsigned spawnOverheadInsts = 100; ///< software cost per epoch
        unsigned lineBytes = 32;      ///< for splitting wide accesses
    };

    Tracer() : Tracer(Options{}) {}
    explicit Tracer(Options opts);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // --- Transaction / loop structure (workload code) ---------------
    void txnBegin();
    void txnEnd();
    void loopBegin();
    void iterBegin();
    void loopEnd();

    /** All transactions captured so far. */
    WorkloadTrace &workload() { return workload_; }
    const WorkloadTrace &workload() const { return workload_; }
    /** Move the capture out and reset. */
    WorkloadTrace takeWorkload();

    /** Start of the bump-allocated object regions. */
    static constexpr Addr kDataBase = 0x1000'0000;
    /** Synthetic address of page 0's frame. */
    static constexpr Addr kFramesBase = 0x4000'0000;
    /** End of the synthetic address space (4 GB). */
    static constexpr Addr kSpaceEnd = Addr{1} << 32;

    // --- Events (database code) --------------------------------------
    /** Trace a load of [p, p + size), which must lie in one region. */
    void
    load(Pc pc, const void *p, std::size_t size, bool dependent = false)
    {
        if (!capturing_)
            return;
        memAccess(TraceOp::Load, pc, p, size, dependent);
    }

    void
    store(Pc pc, const void *p, std::size_t size)
    {
        if (!capturing_)
            return;
        memAccess(TraceOp::Store, pc, p, size, false);
    }

    /**
     * Compute records are split into chunks of at most
     * kMaxComputeChunk instructions so the replay machine can place
     * sub-thread checkpoints (and interleave CPUs) inside long
     * computations.
     */
    static constexpr std::uint64_t kMaxComputeChunk = 2000;

    /** Initial record capacity of a freshly opened epoch. */
    static constexpr std::size_t kRecordsReserve = 256;

    void
    compute(Pc pc, std::uint64_t n, ComputeClass cls = ComputeClass::Int)
    {
        if (!capturing_ || n == 0)
            return;
        while (n > 0) {
            std::uint64_t chunk = std::min(n, kMaxComputeChunk);
            append({TraceOp::Compute, 0,
                    static_cast<std::uint16_t>(cls), pc, chunk});
            n -= chunk;
        }
    }

    void
    branch(Pc pc, bool taken)
    {
        if (!capturing_)
            return;
        append({TraceOp::Branch, 0,
                static_cast<std::uint16_t>(taken ? kAuxTaken : 0), pc, 0});
    }

    void latchAcquire(Pc pc, std::uint64_t latch_id);
    void latchRelease(Pc pc, std::uint64_t latch_id);
    void escapeBegin(Pc pc);
    void escapeEnd(Pc pc);

    bool capturing() const { return capturing_; }
    bool parallelMode() const { return opts_.parallelMode; }

  private:
    friend class TracedRegion;

    /** Real [real, end) mapped to synthetic [synth, synth + end - real). */
    struct Region
    {
        std::uintptr_t real;
        std::uintptr_t end;
        Addr synth;
    };

    void mapRegion(const void *p, std::size_t bytes, Addr synth);
    void unmapRegion(const void *p);
    /** Synthetic address of [p, p + size); panics if unregistered. */
    Addr synthetic(Pc pc, const void *p, std::size_t size);

    void memAccess(TraceOp op, Pc pc, const void *p, std::size_t size,
                   bool dependent);
    void append(const TraceRecord &rec);
    void openSection(bool parallel);
    void openEpoch(bool add_spawn_overhead);
    void closeEpoch();

    /** The epoch currently being appended to. */
    EpochTrace &cur();

    Options opts_;
    LineGeom geom_;
    WorkloadTrace workload_;

    /**
     * Record-buffer arena: the capacity salvaged from sections that
     * txnEnd() drops (every transaction opens a trailing sequential
     * section that usually stays empty) seeds the next epoch's record
     * vector, so steady-state capture recycles one buffer per epoch
     * instead of growing a fresh one. Tallies flush to the
     * "replay.*" global counter group in takeWorkload().
     */
    std::vector<TraceRecord> spareRecords_;
    std::uint64_t captureEpochs_ = 0;
    std::uint64_t captureBufReuses_ = 0;

    std::vector<Region> regions_; ///< sorted by real address
    std::size_t lastRegion_ = 0;  ///< last hit (accesses cluster)
    Addr nextData_ = kDataBase;   ///< bump cursor

    bool capturing_ = false;  ///< inside txnBegin/txnEnd
    bool inLoop_ = false;     ///< inside a marked parallel loop
    bool pendingLoop_ = false;///< loopBegin seen, first iterBegin not yet
    unsigned escapeDepth_ = 0;
    std::uint32_t escapeBeginIdx_ = 0;
};

/**
 * A traced object's claim on the synthetic address space: maps the
 * real range [base, base + bytes) while it lives. An owner registers
 * each traced word and buffer at construction, always in the same
 * order, so the layout is the same in every process; the tracer panics
 * on an access to memory no live region covers.
 */
class TracedRegion
{
  public:
    TracedRegion() = default;

    /** The next `bytes` of the data area, aligned to `align`. */
    TracedRegion(Tracer &tracer, const void *base, std::size_t bytes,
                 std::size_t align = 16);

    /** `pages` page frames of `page_bytes` holding pages first_page,
     *  first_page + 1, ...: kFramesBase + page id * page_bytes. */
    static TracedRegion frames(Tracer &tracer, const void *base,
                               std::uint64_t first_page,
                               std::size_t pages, std::size_t page_bytes);

    TracedRegion(TracedRegion &&o) noexcept
        : tracer_(o.tracer_), base_(o.base_), synth_(o.synth_)
    {
        o.tracer_ = nullptr;
    }
    TracedRegion &operator=(TracedRegion &&o) noexcept;
    TracedRegion(const TracedRegion &) = delete;
    TracedRegion &operator=(const TracedRegion &) = delete;

    ~TracedRegion();

    /** The synthetic address `base` maps to. */
    Addr synthetic() const { return synth_; }

  private:
    TracedRegion(Addr synth, Tracer &tracer, const void *base)
        : tracer_(&tracer), base_(base), synth_(synth)
    {
    }

    Tracer *tracer_ = nullptr;
    const void *base_ = nullptr;
    Addr synth_ = 0;
};

/**
 * RAII helper for escaped regions:
 *     { EscapedRegion esc(tracer, site.pc); ... }
 */
class EscapedRegion
{
  public:
    EscapedRegion(Tracer &tracer, Pc pc) : tracer_(tracer), pc_(pc)
    {
        tracer_.escapeBegin(pc_);
    }

    ~EscapedRegion() { tracer_.escapeEnd(pc_); }

    EscapedRegion(const EscapedRegion &) = delete;
    EscapedRegion &operator=(const EscapedRegion &) = delete;

  private:
    Tracer &tracer_;
    Pc pc_;
};

} // namespace tlsim

#endif // CORE_TRACER_H
