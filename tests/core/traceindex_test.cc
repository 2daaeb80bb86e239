#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "base/addr.h"
#include "core/site.h"
#include "core/traceindex.h"
#include "core/tracer.h"

namespace tlsim {
namespace {

constexpr unsigned kLineBytes = 32;

/** Words per cache line (mem_ holds 8-byte words). */
constexpr std::size_t kWordsPerLine = kLineBytes / 8;

class IndexBuilder
{
  public:
    IndexBuilder() : mem_(16384, 0)
    {
        pc_ = sitePc(SiteId::TestTraceindexSite);
    }

    void *addr(std::size_t word) { return &mem_.at(word); }

    /** mem_ is the one region of each loopTxn's fresh tracer, so it
     *  starts the synthetic data area. */
    Addr lineOf(std::size_t word) const
    {
        return LineGeom(kLineBytes).lineNum(Tracer::kDataBase +
                                            word * sizeof(mem_[0]));
    }

    WorkloadTrace
    loopTxn(const std::vector<std::function<void(Tracer &)>> &bodies)
    {
        Tracer::Options o;
        o.parallelMode = true;
        o.spawnOverheadInsts = 50;
        Tracer t(o);
        TracedRegion region(t, mem_.data(), mem_.size() * sizeof(mem_[0]));
        t.txnBegin();
        t.compute(pc_, 100);
        t.loopBegin();
        for (const auto &body : bodies) {
            t.iterBegin();
            body(t);
        }
        t.loopEnd();
        t.compute(pc_, 100);
        t.txnEnd();
        return t.takeWorkload();
    }

    Pc pc() const { return pc_; }

  private:
    std::vector<std::uint64_t> mem_;
    Pc pc_;
};

/** Distinct-line word indices (one line apart). */
std::size_t
word(std::size_t line_index)
{
    return line_index * kWordsPerLine;
}

TEST(TraceIndex, ClassifiesLinesBySharingPattern)
{
    IndexBuilder b;
    // Epoch 0: stores CONFLICT (word 100*4) and PRIVATE0, loads SHARED.
    // Epoch 1: loads CONFLICT (after an earlier epoch stored it),
    //          loads SHARED (no store anywhere), stores PRIVATE1.
    auto e0 = [&b](Tracer &t) {
        t.compute(b.pc(), 100);
        t.store(b.pc(), b.addr(word(100)), 8);
        t.store(b.pc(), b.addr(word(10)), 8);
        t.load(b.pc(), b.addr(word(50)), 8);
    };
    auto e1 = [&b](Tracer &t) {
        t.compute(b.pc(), 100);
        t.load(b.pc(), b.addr(word(100)), 8);
        t.load(b.pc(), b.addr(word(50)), 8);
        t.store(b.pc(), b.addr(word(20)), 8);
    };
    auto w = b.loopTxn({e0, e1});

    TraceIndex idx(w, kLineBytes);
    const TraceIndex::ClassTotals &t = idx.totals();
    EXPECT_EQ(t.conflict, 1u);     // CONFLICT line
    EXPECT_EQ(t.readShared, 1u);   // SHARED line
    EXPECT_EQ(t.epochPrivate, 2u); // PRIVATE0, PRIVATE1
    EXPECT_EQ(t.total(), 4u);
    EXPECT_EQ(idx.maxSectionLines(), 4u);
}

TEST(TraceIndex, StoreThenLaterEpochStoreIsConflict)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(7)), 8);
    };
    auto e1 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(7)), 8);
    };
    auto w = b.loopTxn({e0, e1});
    TraceIndex idx(w, kLineBytes);
    EXPECT_EQ(idx.totals().conflict, 1u);
    EXPECT_EQ(idx.totals().total(), 1u);
}

TEST(TraceIndex, CoveredBitTracksOwnEarlierStores)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.load(b.pc(), b.addr(word(5)), 8);  // exposed: no store yet
        t.store(b.pc(), b.addr(word(5)), 8); // covers the word
        t.load(b.pc(), b.addr(word(5)), 8);  // covered
        t.load(b.pc(), b.addr(word(5) + 1), 8); // other word: exposed
    };
    auto w = b.loopTxn({e0, e0});

    TraceIndex idx(w, kLineBytes);
    const EpochTrace &e =
        w.txns.at(0).sections.at(1).epochs.at(0);
    const EpochView *v = idx.viewOf(&e);
    ASSERT_NE(v, nullptr);

    std::vector<bool> covered;
    for (std::size_t i = 0; i < v->size(); ++i) {
        if (EpochView::op(v->head[i]) == TraceOp::Load)
            covered.push_back(
                (v->head[i] & EpochView::kCoveredBit) != 0);
    }
    ASSERT_EQ(covered.size(), 3u);
    EXPECT_FALSE(covered[0]);
    EXPECT_TRUE(covered[1]);
    EXPECT_FALSE(covered[2]);
}

TEST(TraceIndex, PackedViewRoundTripsEveryRecord)
{
    IndexBuilder b;
    auto body = [&b](Tracer &t) {
        t.compute(b.pc(), 500);
        t.load(b.pc(), b.addr(word(3)), 8, /*dependent=*/true);
        t.store(b.pc(), b.addr(word(3) + 2), 4);
        t.branch(b.pc(), true);
        t.escapeBegin(b.pc());
        t.latchAcquire(b.pc(), 17);
        t.compute(b.pc(), 50);
        t.latchRelease(b.pc(), 17);
        t.escapeEnd(b.pc());
        t.branch(b.pc(), false);
    };
    auto w = b.loopTxn({body, body});

    TraceIndex idx(w, kLineBytes);
    for (const auto &txn : w.txns) {
        for (const auto &sec : txn.sections) {
            for (const auto &e : sec.epochs) {
                const EpochView *v = idx.viewOf(&e);
                ASSERT_NE(v, nullptr);
                ASSERT_EQ(v->size(), e.records.size());
                for (std::size_t i = 0; i < e.records.size(); ++i) {
                    const TraceRecord &r = e.records[i];
                    std::uint32_t h = v->head[i];
                    EXPECT_EQ(EpochView::op(h), r.op);
                    EXPECT_EQ(EpochView::sizeBytes(h), r.size);
                    EXPECT_EQ(EpochView::aux(h), r.aux);
                    EXPECT_EQ(v->pc[i], r.pc);
                    if (r.op == TraceOp::Load ||
                        r.op == TraceOp::Store)
                        EXPECT_EQ(v->memAddr(i), r.addr);
                    else
                        EXPECT_EQ(v->value(i), r.addr);
                }
            }
        }
    }
}

TEST(TraceIndex, FootprintListsNonEscapedMemoryLines)
{
    IndexBuilder b;
    auto e0 = [&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(9)), 8);
        t.load(b.pc(), b.addr(word(4)), 8);
        t.escapeBegin(b.pc());
        t.store(b.pc(), b.addr(word(200)), 8); // escaped: excluded
        t.escapeEnd(b.pc());
        t.load(b.pc(), b.addr(word(4) + 1), 8); // same line as word(4)
    };
    auto w = b.loopTxn({e0, e0});

    TraceIndex idx(w, kLineBytes);
    const EpochTrace &e = w.txns.at(0).sections.at(1).epochs.at(0);
    const EpochView *v = idx.viewOf(&e);
    std::vector<Addr> expect = {b.lineOf(word(4)), b.lineOf(word(9))};
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(v->footprint, expect);
}

TEST(TraceIndex, BuildCounterCountsOnlyFullAnalyses)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});

    std::uint64_t before = TraceIndex::builds();
    TraceIndex idx(w, kLineBytes);
    EXPECT_EQ(TraceIndex::builds(), before + 1);
}

TEST(TraceIndex, ViewOfForeignEpochDies)
{
    IndexBuilder b;
    auto w = b.loopTxn({[&b](Tracer &t) {
        t.store(b.pc(), b.addr(word(2)), 8);
    }});
    auto other = b.loopTxn({[&b](Tracer &t) {
        t.load(b.pc(), b.addr(word(2)), 8);
    }});
    TraceIndex idx(w, kLineBytes);
    const EpochTrace &foreign =
        other.txns.at(0).sections.at(1).epochs.at(0);
    EXPECT_DEATH(idx.viewOf(&foreign), "");
}

} // namespace
} // namespace tlsim
