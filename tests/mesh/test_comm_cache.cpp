// Tests for the communication-metadata caching layer: the BoxArray spatial
// hash index, stable BoxArray/DistributionMapping ids, and the CopierCache
// memoizing FillBoundary / ParallelCopy / averageDown plans. The cached
// paths must be bit-identical to uncached execution on every backend.
#include "comm/ledger.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/interp.hpp"
#include "mesh/multifab.hpp"
#include "perf/device_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace exa;

namespace {

// Deterministic xorshift RNG (tests must not depend on seeding).
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t next() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    int range(int lo, int hi) { // inclusive
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
    }
};

Box randomBox(Rng& rng, int span, int max_side) {
    IntVect lo{rng.range(-span, span), rng.range(-span, span), rng.range(-span, span)};
    IntVect hi{lo.x + rng.range(0, max_side - 1), lo.y + rng.range(0, max_side - 1),
               lo.z + rng.range(0, max_side - 1)};
    return Box(lo, hi);
}

// Reference linear-scan intersections (what the pre-index code did).
std::vector<std::pair<int, Box>> linearIntersections(const BoxArray& ba,
                                                     const Box& bx) {
    std::vector<std::pair<int, Box>> out;
    if (!bx.ok()) return out;
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box isect = ba[i] & bx;
        if (isect.ok()) out.emplace_back(static_cast<int>(i), isect);
    }
    return out;
}

// Reference containment: every zone of bx lies in some box of ba.
bool zonewiseContains(const BoxArray& ba, const Box& bx) {
    for (int k = bx.smallEnd(2); k <= bx.bigEnd(2); ++k)
        for (int j = bx.smallEnd(1); j <= bx.bigEnd(1); ++j)
            for (int i = bx.smallEnd(0); i <= bx.bigEnd(0); ++i) {
                bool covered = false;
                for (std::size_t b = 0; b < ba.size(); ++b) {
                    if (ba[b].contains(i, j, k)) {
                        covered = true;
                        break;
                    }
                }
                if (!covered) return false;
            }
    return true;
}

Real f(int i, int j, int k, int n) {
    return std::sin(0.37 * i + 0.11 * j) + 0.21 * k + 1.7 * n;
}

MultiFab makeFilled(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                    int ngrow) {
    MultiFab mf(ba, dm, ncomp, ngrow);
    mf.setVal(-4.0e30); // poison ghosts so un-filled zones still compare
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.array(static_cast<int>(b));
        const Box& vb = mf.box(static_cast<int>(b));
        for (int n = 0; n < ncomp; ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        a(i, j, k, n) = f(i, j, k, n);
    }
    return mf;
}

// Bitwise equality of two MultiFabs over valid + ghost zones.
void expectIdentical(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.nComp(), b.nComp());
    ASSERT_EQ(a.nGrow(), b.nGrow());
    for (std::size_t fb = 0; fb < a.size(); ++fb) {
        auto aa = a.const_array(static_cast<int>(fb));
        auto bb = b.const_array(static_cast<int>(fb));
        const Box gb = a.fabbox(static_cast<int>(fb));
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                        ASSERT_EQ(aa(i, j, k, n), bb(i, j, k, n))
                            << "fab " << fb << " @ " << i << ' ' << j << ' ' << k
                            << " comp " << n;
    }
}

// Toggle memoization off for a scope (the plan-based execution path stays).
class ScopedCacheDisabled {
public:
    ScopedCacheDisabled() : m_saved(CopierCache::instance().enabled()) {
        CopierCache::instance().setEnabled(false);
    }
    ~ScopedCacheDisabled() { CopierCache::instance().setEnabled(m_saved); }

private:
    bool m_saved;
};

struct Msg {
    int src, dst;
    std::int64_t bytes;
    std::string tag;
    bool operator==(const Msg&) const = default;
};

std::vector<Msg> recordMessages(const std::function<void()>& body) {
    std::vector<Msg> out;
    EventSubscription sub =
        events::subscribe<MessageRecord>([&](const MessageRecord& r) {
            out.push_back({r.src_rank, r.dst_rank, r.bytes, r.tag});
        });
    body();
    sub.reset();
    return out;
}

} // namespace

// --- spatial hash index --------------------------------------------------

TEST(BoxArrayIndex, HashedIntersectionsMatchLinearScan) {
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<Box> boxes;
        const int nbox = rng.range(1, 60);
        for (int b = 0; b < nbox; ++b) {
            // Mixed sizes and positions; overlap is allowed and frequent.
            boxes.push_back(randomBox(rng, 40, rng.range(1, 12)));
        }
        BoxArray ba(boxes);
        for (int q = 0; q < 25; ++q) {
            const Box query = randomBox(rng, 48, 14);
            const auto hashed = ba.intersections(query);
            const auto linear = linearIntersections(ba, query);
            ASSERT_EQ(hashed, linear) << "trial " << trial << " query " << q;
            EXPECT_EQ(ba.intersects(query), !linear.empty());
        }
    }
}

TEST(BoxArrayIndex, ContainsMatchesZonewiseReferenceUnderOverlap) {
    Rng rng(0xdeadbeefULL);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<Box> boxes;
        const int nbox = rng.range(1, 20);
        for (int b = 0; b < nbox; ++b) boxes.push_back(randomBox(rng, 8, 6));
        BoxArray ba(boxes);
        for (int q = 0; q < 10; ++q) {
            const Box query = randomBox(rng, 9, 5); // small: zonewise ref is cheap
            ASSERT_EQ(ba.contains(query), zonewiseContains(ba, query))
                << "trial " << trial << " query " << query.smallEnd().x;
        }
    }
}

TEST(BoxArrayIndex, ContainsIsCorrectAfterJoin) {
    // Regression: contains() used to compare the *sum* of intersection
    // volumes against the query volume, which double-counts overlapped
    // zones. After join() the array overlaps and the shortcut lies.
    BoxArray a(Box({0, 0, 0}, {1, 0, 0}));
    BoxArray b(Box({1, 0, 0}, {2, 0, 0}));
    a.join(b); // union covers x in [0,2]; zone x=1 is covered twice
    const Box q({0, 0, 0}, {3, 0, 0});
    // Old shortcut: 2 + 2 = 4 zones == q.numPts() => wrongly "contained".
    EXPECT_FALSE(a.contains(q));
    EXPECT_TRUE(a.contains(Box({0, 0, 0}, {2, 0, 0})));
    EXPECT_FALSE(a.isDisjoint());
}

TEST(BoxArrayIndex, DisjointAndRoundTripSemanticsPreserved) {
    BoxArray ba(Box({0, 0, 0}, {31, 31, 31}));
    ba.maxSize(8);
    EXPECT_TRUE(ba.isDisjoint());
    EXPECT_TRUE(ba.contains(Box({3, 3, 3}, {28, 28, 28})));
    EXPECT_FALSE(ba.contains(Box({3, 3, 3}, {32, 28, 28})));
    BoxArray back = ba;
    back.refine(2);
    back.coarsen(2);
    EXPECT_EQ(back, ba); // content equality despite different ids
}

// --- stable identities ---------------------------------------------------

TEST(CopierIds, CopiesShareMutationsMint) {
    BoxArray ba(Box({0, 0, 0}, {15, 15, 15}));
    EXPECT_NE(ba.id(), 0u);
    BoxArray copy = ba;
    EXPECT_EQ(copy.id(), ba.id());
    copy.maxSize(8);
    EXPECT_NE(copy.id(), ba.id());
    const std::uint64_t after_chop = copy.id();
    copy.refine(2);
    EXPECT_NE(copy.id(), after_chop);
    BoxArray empty;
    EXPECT_EQ(empty.id(), 0u);

    DistributionMapping dm(ba, 4);
    EXPECT_NE(dm.id(), 0u);
    DistributionMapping dm_copy = dm;
    EXPECT_EQ(dm_copy.id(), dm.id());
    DistributionMapping dm2(ba, 4);
    EXPECT_NE(dm2.id(), dm.id()); // same content, fresh identity
    EXPECT_EQ(dm2, dm);           // content comparison still holds
    DistributionMapping dm_default;
    EXPECT_EQ(dm_default.id(), 0u);
}

// --- cache behavior ------------------------------------------------------

TEST(CopierCacheTest, HitsMissesAndInvalidationByIdentity) {
    auto& cache = CopierCache::instance();
    cache.resetStats();

    BoxArray ba(Box({0, 0, 0}, {31, 31, 31}));
    ba.maxSize(16);
    DistributionMapping dm(ba, 4);
    const Periodicity per(IntVect{32, 32, 32});

    const auto p1 = cache.fillBoundary(ba, dm, 2, per);
    auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 1u);

    const auto p2 = cache.fillBoundary(ba, dm, 2, per);
    s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(p1.get(), p2.get()); // the very same plan object

    // Different ghost width: a different key.
    (void)cache.fillBoundary(ba, dm, 1, per);
    s = cache.stats();
    EXPECT_EQ(s.misses, 2u);

    // A "regrid": mutating the BoxArray mints a fresh id, so the old plan
    // is never consulted again.
    ba.maxSize(8);
    DistributionMapping dm8(ba, 4);
    (void)cache.fillBoundary(ba, dm8, 2, per);
    s = cache.stats();
    EXPECT_EQ(s.misses, 3u);
    EXPECT_GE(s.build_seconds, 0.0);
}

TEST(CopierCacheTest, PlansDieWithTheirLayout) {
    // An entry lives exactly as long as every layout in its key: a
    // surviving copy keeps it, the death of the last copy of any key
    // participant drops it, and a new mapping on the same BoxArray (a
    // rebalance) drops only the old mapping's plans.
    auto& cache = CopierCache::instance();
    cache.clear();
    cache.resetStats();
    const Periodicity per = Periodicity::nonPeriodic();
    auto resident = [&] {
        const auto s = cache.stats();
        return std::pair{s.plans, s.partitions};
    };
    using Counts = std::pair<std::size_t, std::size_t>;
    {
        BoxArray crse(Box({0, 0, 0}, {15, 15, 15}));
        crse.maxSize(8);
        const DistributionMapping cdm(crse, 2);
        std::optional<BoxArray> fine(std::in_place, Box({8, 8, 8}, {23, 23, 23}));
        fine->maxSize(8);
        std::optional<DistributionMapping> fdm(std::in_place, *fine, 2);

        (void)cache.fillBoundary(crse, cdm, 1, per);
        (void)cache.interiorPartition(crse, 1);
        (void)cache.fillBoundary(*fine, *fdm, 1, per);
        (void)cache.parallelCopy(*fine, *fdm, crse, cdm, 1, per);
        (void)cache.averageDown(crse, *fine, 2);
        (void)cache.interiorPartition(*fine, 1);
        EXPECT_EQ(resident(), (Counts{4, 2}));
        EXPECT_EQ(cache.stats().misses, 4u);
        {
            // The originals die; their copies keep every entry alive.
            BoxArray fine_copy = *fine;
            DistributionMapping fdm_copy = *fdm;
            fine.reset();
            fdm.reset();
            EXPECT_EQ(resident(), (Counts{4, 2}));
            (void)cache.fillBoundary(fine_copy, fdm_copy, 1, per);
            (void)cache.parallelCopy(fine_copy, fdm_copy, crse, cdm, 1, per);
            (void)cache.averageDown(crse, fine_copy, 2);
            (void)cache.interiorPartition(fine_copy, 1);
            EXPECT_EQ(cache.stats().hits, 3u);
            EXPECT_EQ(cache.stats().misses, 4u);
            EXPECT_EQ(cache.stats().partition_hits, 1u);

            // Rebalance: the old mapping's last copy dies with the
            // assignment, taking its FillBoundary and ParallelCopy plans;
            // averageDown and the partition key on no mapping and stay.
            fdm_copy = DistributionMapping(fine_copy, 3);
            EXPECT_EQ(resident(), (Counts{2, 2}));
            (void)cache.averageDown(crse, fine_copy, 2);
            (void)cache.interiorPartition(fine_copy, 1);
            EXPECT_EQ(cache.stats().hits, 4u);
            EXPECT_EQ(cache.stats().partition_hits, 2u);
            (void)cache.fillBoundary(fine_copy, fdm_copy, 1, per);
            EXPECT_EQ(cache.stats().misses, 5u);
            EXPECT_EQ(resident(), (Counts{3, 2}));
        }
        // The fine BoxArray's last copy is gone: every entry naming it
        // (FillBoundary, averageDown, partition) goes with it.
        EXPECT_EQ(resident(), (Counts{1, 1}));

        // A mutation mints a fresh identity: the old one's entries die.
        crse.maxSize(4);
        EXPECT_EQ(resident(), (Counts{0, 0}));
        const DistributionMapping cdm4(crse, 2);
        (void)cache.fillBoundary(crse, cdm4, 1, per);
        (void)cache.interiorPartition(crse, 1);
        EXPECT_EQ(resident(), (Counts{1, 1}));
    }
    // Every layout is gone, and nothing outlives its layouts.
    EXPECT_EQ(resident(), (Counts{0, 0}));
}

TEST(CopierCacheTest, PlansAreComponentCountIndependent) {
    auto& cache = CopierCache::instance();
    BoxArray ba(Box({0, 0, 0}, {15, 15, 15}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 2);
    MultiFab a(ba, dm, 1, 2), b(ba, dm, 5, 2);
    a.setVal(1.0);
    b.setVal(2.0);
    cache.resetStats();
    a.FillBoundary();
    b.FillBoundary(); // same layout, different ncomp: one plan serves both
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
}

// --- bit-identity of cached execution ------------------------------------

class CommCacheBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(CommCacheBackends, FillBoundaryCachedMatchesUncached) {
    ScopedBackend backend(GetParam());
    for (bool periodic : {false, true}) {
        const int nx = 16;
        BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
        ba.maxSize(8);
        DistributionMapping dm(ba, 4);
        const Periodicity per = periodic ? Periodicity(IntVect{nx, nx, nx})
                                         : Periodicity::nonPeriodic();

        MultiFab cached = makeFilled(ba, dm, 2, 2);
        cached.FillBoundary(0, cached.nComp(), per); // cold: builds and caches the plan
        cached.FillBoundary(0, cached.nComp(), per); // warm: replays the cached plan

        MultiFab reference = makeFilled(ba, dm, 2, 2);
        {
            ScopedCacheDisabled off;
            reference.FillBoundary(0, reference.nComp(), per);
            reference.FillBoundary(0, reference.nComp(), per);
        }
        expectIdentical(cached, reference);
    }
}

TEST_P(CommCacheBackends, ParallelCopyCachedMatchesUncached) {
    ScopedBackend backend(GetParam());
    const int nx = 16;
    BoxArray sba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    sba.maxSize(8);
    DistributionMapping sdm(sba, 4);
    MultiFab src = makeFilled(sba, sdm, 2, 0);

    BoxArray dba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    dba.maxSize(4); // different decomposition
    DistributionMapping ddm(dba, 3);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab cached(dba, ddm, 2, 1);
    cached.setVal(0.0);
    cached.ParallelCopy(src, 0, 0, 2, 1, per);
    cached.ParallelCopy(src, 0, 0, 2, 1, per); // warm

    MultiFab reference(dba, ddm, 2, 1);
    reference.setVal(0.0);
    {
        ScopedCacheDisabled off;
        reference.ParallelCopy(src, 0, 0, 2, 1, per);
        reference.ParallelCopy(src, 0, 0, 2, 1, per);
    }
    expectIdentical(cached, reference);
}

TEST_P(CommCacheBackends, FillPatchAndAverageDownCachedMatchUncached) {
    ScopedBackend backend(GetParam());
    const Box cdom({0, 0, 0}, {15, 15, 15});
    Geometry cgeom(cdom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    Geometry fgeom = cgeom.refined(2);

    BoxArray cba(cdom);
    cba.maxSize(8);
    DistributionMapping cdm(cba, 2);
    MultiFab crse = makeFilled(cba, cdm, 1, 1);
    crse.FillBoundary(0, crse.nComp(), cgeom.periodicity());

    BoxArray fba(refine(Box({4, 4, 4}, {11, 11, 11}), 2));
    fba.maxSize(8);
    DistributionMapping fdm(fba, 2);
    MultiFab fine = makeFilled(fba, fdm, 1, 0);

    BoxArray dba(refine(Box({2, 2, 2}, {13, 13, 13}), 2));
    dba.maxSize(12);
    DistributionMapping ddm(dba, 2);

    auto run = [&](MultiFab& dst, MultiFab& avg) {
        dst.setVal(0.0);
        // Twice: the second pass exercises the warm plans.
        fillPatchTwoLevels(dst, fine, crse, cgeom, fgeom, 2, 0, 0, 1, 2);
        fillPatchTwoLevels(dst, fine, crse, cgeom, fgeom, 2, 0, 0, 1, 2);
        avg.setVal(0.0);
        averageDown(avg, fine, 2, 0, 0, 1);
        averageDown(avg, fine, 2, 0, 0, 1);
    };

    MultiFab dst_cached(dba, ddm, 1, 2), avg_cached(cba, cdm, 1, 0);
    run(dst_cached, avg_cached);

    MultiFab dst_ref(dba, ddm, 1, 2), avg_ref(cba, cdm, 1, 0);
    {
        ScopedCacheDisabled off;
        run(dst_ref, avg_ref);
    }
    expectIdentical(dst_cached, dst_ref);
    expectIdentical(avg_cached, avg_ref);
}

INSTANTIATE_TEST_SUITE_P(Backends, CommCacheBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const auto& info) {
                             return std::string(backendName(info.param));
                         });

// --- message accounting --------------------------------------------------

TEST(CopierCacheTest, WarmFillBoundaryReportsIdenticalMessages) {
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 8); // one box per rank: everything off-rank
    const Periodicity per(IntVect{nx, nx, nx});
    MultiFab mf = makeFilled(ba, dm, 3, 2);

    const auto cold = recordMessages([&] { mf.FillBoundary(0, mf.nComp(), per); });
    const auto warm = recordMessages([&] { mf.FillBoundary(0, mf.nComp(), per); });
    std::vector<Msg> uncached;
    {
        ScopedCacheDisabled off;
        uncached = recordMessages([&] { mf.FillBoundary(0, mf.nComp(), per); });
    }
    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, uncached);
}

// --- interior/boundary partitions ----------------------------------------

TEST(CopierCacheTest, InteriorPartitionGeometryAndCaching) {
    auto& cache = CopierCache::instance();
    cache.clear();
    cache.resetStats();

    BoxArray ba(Box({0, 0, 0}, {31, 31, 31}));
    ba.maxSize(8);
    const auto part = cache.interiorPartition(ba, 2);
    ASSERT_EQ(part->fabs.size(), ba.size());
    EXPECT_EQ(part->stencil, 2);

    // 8^3 boxes at stencil 2 have a 4^3 interior: exactly an eighth of
    // the zones, the smallest interior that still overlaps.
    EXPECT_TRUE(part->overlaps);
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box& vb = ba[i];
        const FabRegions& fr = part->fabs[i];
        // Interior is the valid box shrunk by the stencil width.
        ASSERT_TRUE(fr.interior.ok());
        EXPECT_EQ(fr.interior, grow(vb, -2));
        // Shell boxes are disjoint from the interior and from each other,
        // and interior + shell tile the valid box exactly.
        std::int64_t pts = fr.interior.numPts();
        for (std::size_t a = 0; a < fr.shell.size(); ++a) {
            EXPECT_FALSE((fr.shell[a] & fr.interior).ok());
            EXPECT_TRUE(vb.contains(fr.shell[a]));
            for (std::size_t b = a + 1; b < fr.shell.size(); ++b) {
                EXPECT_FALSE((fr.shell[a] & fr.shell[b]).ok());
            }
            pts += fr.shell[a].numPts();
        }
        EXPECT_EQ(pts, vb.numPts());
    }

    // A stencil as wide as the half-width leaves no interior: the whole
    // valid box is shell, and with every fab whole nothing overlaps.
    const auto thin = cache.interiorPartition(ba, 4);
    EXPECT_FALSE(thin->overlaps);
    for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_FALSE(thin->fabs[i].interior.ok());
        ASSERT_EQ(thin->fabs[i].shell.size(), 1u);
        EXPECT_EQ(thin->fabs[i].shell[0], ba[i]);
    }

    // Just below an eighth: an 8x8x7 box at stencil 2 has a 4x4x3
    // interior (48 of 448 zones), so it is whole, beside an 8^3 box at
    // exactly an eighth that still overlaps.
    const Box at({0, 0, 0}, {7, 7, 7});
    const Box below({8, 0, 0}, {15, 7, 6});
    const auto mixed =
        CopierCache::buildInteriorPartition(BoxArray(std::vector<Box>{at, below}), 2);
    EXPECT_TRUE(mixed->overlaps);
    EXPECT_EQ(mixed->fabs[0].interior, grow(at, -2));
    EXPECT_FALSE(mixed->fabs[1].interior.ok());
    EXPECT_EQ(mixed->fabs[1].shell, std::vector<Box>{below});
    EXPECT_FALSE(
        CopierCache::buildInteriorPartition(BoxArray(std::vector<Box>{below}), 2)->overlaps);

    // Caching: same (ba, stencil) is a hit and returns the same plan;
    // a different stencil or a different BoxArray identity misses. The
    // copy-plan hit/miss counters are untouched throughout.
    auto s = cache.stats();
    EXPECT_EQ(s.partition_misses, 2u);
    EXPECT_EQ(s.partition_hits, 0u);
    EXPECT_EQ(s.partitions, 2u);
    const auto again = cache.interiorPartition(ba, 2);
    EXPECT_EQ(again.get(), part.get());
    BoxArray other(Box({0, 0, 0}, {31, 31, 31}));
    other.maxSize(8); // same boxes, fresh identity
    (void)cache.interiorPartition(other, 2);
    s = cache.stats();
    EXPECT_EQ(s.partition_hits, 1u);
    EXPECT_EQ(s.partition_misses, 3u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
}

// --- split-phase accounting (identical published message counts) -------

TEST(CopierCacheTest, SplitPhaseReportsIdenticalMessages) {
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 8); // one box per rank: everything off-rank
    const Periodicity per(IntVect{nx, nx, nx});
    MultiFab mf = makeFilled(ba, dm, 3, 2);

    const std::vector<Msg> fused =
        recordMessages([&] { mf.FillBoundary(0, mf.nComp(), per); });
    const std::vector<Msg> split = recordMessages([&] {
        comm::HaloHandle h = mf.FillBoundary_nowait(0, mf.nComp(), per);
        h.finish();
    });
    EXPECT_FALSE(fused.empty());
    // Same messages, same order, same byte counts, same tags: the split
    // path delivers through the identical plan items.
    EXPECT_EQ(fused, split);

    MultiFab src = makeFilled(ba, dm, 3, 2);
    const std::vector<Msg> pfused =
        recordMessages([&] { mf.ParallelCopy(src, 0, 0, 3, 1, per); });
    const std::vector<Msg> psplit = recordMessages([&] {
        comm::HaloHandle h = mf.ParallelCopy_nowait(src, 0, 0, 3, 1, per);
        h.finish();
    });
    EXPECT_FALSE(pfused.empty());
    EXPECT_EQ(pfused, psplit);
}

// --- fused plan delivery -------------------------------------------------

TEST(CopierCacheTest, EagerFillBoundaryIsOneFabCopyLaunch) {
    // 64 boxes on 4 ranks, periodic: hundreds of plan items, every one of
    // them delivered by the same fab_copy launch.
    ScopedBackend backend(Backend::SimGpu);
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 4);
    const Periodicity per(IntVect{nx, nx, nx});
    const int ncomp = 2;
    const auto plan = CopierCache::instance().fillBoundary(ba, dm, 2, per);
    ASSERT_GT(plan->items.size(), ba.size());

    // The per-box path: one copyFrom launch per item, and the messages
    // its off-rank items carry.
    MultiFab ref = makeFilled(ba, dm, ncomp, 2);
    std::int64_t ref_messages = 0, ref_bytes = 0;
    for (const CopyItem& item : plan->items) {
        ref.fab(item.dst_fab).copyFrom(ref.fab(item.src_fab), item.src_box, 0,
                                       item.dst_box, 0, ncomp);
        if (item.local()) continue;
        ++ref_messages;
        ref_bytes += item.src_box.numPts() * ncomp * static_cast<std::int64_t>(sizeof(Real));
    }
    ASSERT_GT(ref_messages, 0);

    MultiFab mf = makeFilled(ba, dm, ncomp, 2);
    DeviceModel dev;
    CommLedger ledger;
    dev.attach();
    ledger.attach();
    mf.FillBoundary(0, ncomp, per);
    dev.detach();
    ledger.detach();

    EXPECT_EQ(dev.numLaunches(), 1);
    const auto& ks = dev.kernelStats().at("fab_copy");
    EXPECT_EQ(ks.launches, 1);
    EXPECT_EQ(ks.zones, plan->zones * ncomp);
    EXPECT_EQ(ledger.totalMessages(), ref_messages);
    EXPECT_EQ(ledger.totalBytes(), ref_bytes);
    expectIdentical(mf, ref);
}
