// Coloured launches and the gather plan: colours by longest path over the
// overlapping writes of one target; a plan's one fab_setval launch and one
// fab_copy launch per colour against a per-copy reference loop; the
// CopierCache's memoized interpolation gather; and fillPatchTwoLevels
// (that gather plus one interpolation launch) against the per-fab,
// per-copy form it replaced. Bits are compared on every backend, Debug
// checks every launch, and a coarse BoxArray that overlaps itself makes
// the gathers need more than one colour.
#include "../support/check_every_launch.hpp"
#include "core/executor.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/gather_plan.hpp"
#include "mesh/interp.hpp"
#include "perf/device_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace exa;

namespace {

constexpr Backend kBackends[] = {Backend::Serial, Backend::OpenMP, Backend::SimGpu,
                                 Backend::Debug};

// A periodic 16^3 coarse level whose first three boxes overlap along x
// (x 4..7 and 8..11 are held twice), so a gather over x 3..9 takes three
// colours.
BoxArray overlappingCoarse() {
    return BoxArray(std::vector<Box>{Box({0, 0, 0}, {7, 7, 7}), Box({4, 0, 0}, {11, 7, 7}),
                                     Box({8, 0, 0}, {15, 7, 7}), Box({0, 8, 0}, {15, 15, 7}),
                                     Box({0, 0, 8}, {15, 15, 15})});
}

// Values that differ between fabs where their boxes overlap, and ghosts
// no gather may read.
void fillDistinct(MultiFab& mf, Real scale) {
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.array(static_cast<int>(f));
        const Box& vb = mf.box(static_cast<int>(f));
        const Box gb = mf.fabbox(static_cast<int>(f));
        for (int n = 0; n < mf.nComp(); ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                        a(i, j, k, n) = vb.contains(i, j, k)
                                            ? scale * (f + 1) +
                                                  std::sin(0.7 * i + 1.3 * j * j + 0.4 * k + n)
                                            : 1.0e30;
    }
}

std::vector<Real> values(const FArrayBox& fab, const Box& region) {
    std::vector<Real> out;
    auto a = fab.const_array();
    for (int n = 0; n < fab.nComp(); ++n)
        for (int k = region.smallEnd(2); k <= region.bigEnd(2); ++k)
            for (int j = region.smallEnd(1); j <= region.bigEnd(1); ++j)
                for (int i = region.smallEnd(0); i <= region.bigEnd(0); ++i)
                    out.push_back(a(i, j, k, n));
    return out;
}

// Valid + ng ghost zones of every fab, every component, in fab order.
std::vector<Real> values(const MultiFab& mf, int ng) {
    std::vector<Real> out;
    for (std::size_t f = 0; f < mf.size(); ++f) {
        const auto v = values(mf.fab(static_cast<int>(f)), grow(mf.box(static_cast<int>(f)), ng));
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

// The per-copy reference: zero one scratch per box, then one copy per
// (periodic shift, source fab) in gather order.
std::vector<FArrayBox> gatherPerCopy(const std::vector<Box>& boxes, const MultiFab& src,
                                     const Periodicity& per, int scomp, int ncomp) {
    std::vector<FArrayBox> out;
    for (const Box& b : boxes) {
        FArrayBox f(b, ncomp);
        f.setVal(0.0);
        for (const IntVect& s : per.shifts()) {
            for (const auto& [j, isect] : src.boxArray().intersections(shift(b, -s))) {
                f.copyFrom(src.fab(j), isect, scomp, shift(isect, s), 0, ncomp);
            }
        }
        out.push_back(std::move(f));
    }
    return out;
}

// fillPatchTwoLevels as one gather and one interpolation per fab, then
// the same-level copy on top.
void fillPatchPerCopy(MultiFab& dst, const MultiFab& fine_src, const MultiFab& crse,
                      const Geometry& cgeom, const Geometry& fgeom, int ratio, int scomp,
                      int dcomp, int ncomp, int dst_ng) {
    std::vector<Box> boxes;
    for (std::size_t i = 0; i < dst.size(); ++i)
        boxes.push_back(coarsen(grow(dst.box(static_cast<int>(i)), dst_ng), ratio).grow(1));
    const auto ctmp = gatherPerCopy(boxes, crse, cgeom.periodicity(), scomp, ncomp);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        conslinInterp(dst.array(static_cast<int>(i)), ctmp[i].const_array(),
                      grow(dst.box(static_cast<int>(i)), dst_ng), ratio, 0, dcomp, ncomp);
    }
    dst.ParallelCopy(fine_src, scomp, dcomp, ncomp, dst_ng, fgeom.periodicity());
}

std::map<std::string, std::int64_t> launchesByKernel(const DeviceModel& dev) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [name, ks] : dev.kernelStats()) out[name] = ks.launches;
    return out;
}

} // namespace

TEST(LaunchColors, LongestPathOverOverlapsOfOneTarget) {
    LaunchColors c;
    EXPECT_EQ(c.add(0, Box({0, 0, 0}, {3, 3, 3})), 0);
    EXPECT_EQ(c.add(0, Box({2, 0, 0}, {5, 3, 3})), 1); // overlaps item 0
    EXPECT_EQ(c.add(0, Box({6, 0, 0}, {7, 3, 3})), 0); // disjoint from both
    EXPECT_EQ(c.add(0, Box({3, 0, 0}, {6, 3, 3})), 2); // above items 1 and 2
    EXPECT_EQ(c.add(1, Box({0, 0, 0}, {3, 3, 3})), 0); // another target
    EXPECT_EQ(c.add(0, Box({8, 0, 0}, {9, 3, 3})), 0);
    ASSERT_EQ(c.numColors(), 3);
    EXPECT_EQ(c.items(0), (std::vector<std::size_t>{0, 2, 4, 5}));
    EXPECT_EQ(c.items(1), (std::vector<std::size_t>{1}));
    EXPECT_EQ(c.items(2), (std::vector<std::size_t>{3}));
}

TEST(GatherPlan, MatchesPerCopyLoopOnEveryBackend) {
    // Scratch boxes straddling the periodic edges and the overlaps of the
    // coarse boxes: the plan's launches give the bits of one copy per
    // item, in one fab_setval launch and one fab_copy launch per colour,
    // and a reused scratch vector is zeroed again.
    const BoxArray cba = overlappingCoarse();
    const DistributionMapping cdm(cba, 2);
    MultiFab crse(cba, cdm, 3, 1);
    fillDistinct(crse, 10.0);
    const Periodicity per(IntVect{16, 16, 16});
    const std::vector<Box> boxes{Box({-2, -2, -2}, {5, 5, 5}), Box({3, 2, 1}, {9, 6, 4}),
                                 Box({10, 10, 10}, {17, 17, 17}), Box({6, -1, 6}, {12, 9, 9})};
    GatherPlan plan;
    plan.add(boxes, cba, per);
    ASSERT_EQ(plan.boxes(), boxes);
    ASSERT_GE(plan.numColors(), 2);

    std::vector<FArrayBox> ref;
    {
        ScopedBackend sb(Backend::Serial);
        ref = gatherPerCopy(boxes, crse, per, 1, 2);
    }
    CheckEveryLaunch check;
    for (const Backend be : kBackends) {
        SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)));
        ScopedBackend sb(be);
        std::vector<FArrayBox> out;
        DeviceModel dev;
        dev.attach();
        plan.run(crse, 1, 2, out);
        dev.detach();
        ASSERT_EQ(out.size(), boxes.size());
        for (std::size_t t = 0; t < boxes.size(); ++t)
            EXPECT_EQ(values(out[t], boxes[t]), values(ref[t], boxes[t])) << "scratch " << t;
        if (be == Backend::SimGpu) {
            const auto launches = launchesByKernel(dev);
            EXPECT_EQ(launches.size(), 2u);
            EXPECT_EQ(launches.at("fab_setval"), 1);
            EXPECT_EQ(launches.at("fab_copy"), plan.numColors());
        }
        for (FArrayBox& f : out) f.setVal(7.0);
        plan.run(crse, 1, 2, out);
        for (std::size_t t = 0; t < boxes.size(); ++t)
            EXPECT_EQ(values(out[t], boxes[t]), values(ref[t], boxes[t])) << "reused " << t;
    }
}

TEST(GatherPlan, SourceSlotsGatherFromTheirOwnMultiFab) {
    // Two add() calls make two source slots; each scratch reads only its
    // own slot's MultiFab, and all of them share the launches.
    const BoxArray a(std::vector<Box>{Box({0, 0, 0}, {3, 3, 3}), Box({4, 0, 0}, {7, 3, 3})});
    const BoxArray b(std::vector<Box>{Box({0, 0, 0}, {7, 3, 3})});
    MultiFab ma(a, DistributionMapping(a, 1), 1, 0);
    MultiFab mb(b, DistributionMapping(b, 1), 1, 0);
    ma.setVal(1.0);
    mb.setVal(2.0);
    const std::vector<Box> box{Box({2, 0, 0}, {5, 3, 3})};
    GatherPlan plan;
    plan.add(box, a);
    plan.add(box, b);
    ASSERT_EQ(plan.items().size(), 3u);
    EXPECT_EQ(plan.items()[1].src, 0);
    EXPECT_EQ(plan.items()[2].src, 1);
    EXPECT_EQ(plan.numColors(), 1);
    std::vector<FArrayBox> out;
    const MultiFab* const src[] = {&ma, &mb};
    plan.run(src, 0, 1, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].max(box[0], 0), 1.0);
    EXPECT_EQ(out[0].min(box[0], 0), 1.0);
    EXPECT_EQ(out[1].max(box[0], 0), 2.0);
    EXPECT_EQ(out[1].min(box[0], 0), 2.0);
}

TEST(CopierCacheTest, InterpGatherIsCachedAndDiesWithItsLayouts) {
    auto& cache = CopierCache::instance();
    cache.clear();
    cache.resetStats();
    const Periodicity per(IntVect{16, 16, 16});
    const BoxArray cba = overlappingCoarse();
    {
        BoxArray fba(Box({4, 4, 4}, {19, 19, 19}));
        fba.maxSize(8);
        const auto p1 = cache.interpGather(fba, cba, 2, 1, per);
        const auto p2 = cache.interpGather(fba, cba, 2, 1, per);
        EXPECT_EQ(p1.get(), p2.get());
        (void)cache.interpGather(fba, cba, 2, 2, per); // another ghost width
        auto s = cache.stats();
        EXPECT_EQ(s.gather_hits, 1u);
        EXPECT_EQ(s.gather_misses, 2u);
        EXPECT_EQ(s.gathers, 2u);
        EXPECT_EQ(s.hits + s.misses, 0u); // the copy-plan counters are untouched
        // One scratch per fine fab: the coarsened grown box plus the ring.
        ASSERT_EQ(p1->boxes().size(), fba.size());
        EXPECT_EQ(p1->boxes()[0], coarsen(grow(fba[0], 1), 2).grow(1));
    }
    // The fine BoxArray's last copy is gone, and its gathers with it.
    EXPECT_EQ(cache.stats().gathers, 0u);
}

TEST(FillPatchTwoLevels, MatchesPerCopyReferenceOnEveryBackend) {
    // A periodic two-level pair over the self-overlapping coarse level, for
    // a separate destination with two ghost zones (components 1-2 into
    // 0-1) and for dst == fine_src (components 1-2 in place): the bits of
    // one gather and one interpolation per fab on every backend, and the
    // same launches per call for 8 or 64 fine fabs.
    const Box cdom({0, 0, 0}, {15, 15, 15});
    const Geometry cgeom(cdom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    const Geometry fgeom = cgeom.refined(2);
    const BoxArray cba = overlappingCoarse();
    MultiFab crse(cba, DistributionMapping(cba, 2), 3, 1);
    fillDistinct(crse, 10.0);

    for (const bool alias : {false, true}) {
        std::optional<std::map<std::string, std::int64_t>> first_launches;
        std::size_t first_fabs = 0;
        for (const int chop : {8, 4}) {
            SCOPED_TRACE((alias ? "dst == fine_src, chop " : "separate dst, chop ") +
                         std::to_string(chop));
            BoxArray fba(refine(Box({2, 3, 2}, {9, 10, 9}), 2));
            fba.maxSize(chop);
            const DistributionMapping fdm(fba, 3);
            BoxArray dba(refine(Box({0, 2, 0}, {11, 13, 9}), 2));
            dba.maxSize(chop);
            const DistributionMapping ddm(dba, 2);
            const int dst_ng = alias ? 1 : 2;
            const int dcomp = alias ? 1 : 0;
            auto fresh = [&](MultiFab& fine_src, MultiFab& dst) {
                fine_src.define(fba, fdm, 3, alias ? dst_ng : 0);
                fillDistinct(fine_src, 100.0);
                if (!alias) {
                    dst.define(dba, ddm, 3, dst_ng);
                    dst.setVal(-5.0);
                }
            };
            auto run = [&](bool reference) {
                MultiFab fine_src, dst_mf;
                fresh(fine_src, dst_mf);
                MultiFab& dst = alias ? fine_src : dst_mf;
                if (reference) {
                    fillPatchPerCopy(dst, fine_src, crse, cgeom, fgeom, 2, 1, dcomp, 2, dst_ng);
                } else {
                    fillPatchTwoLevels(dst, fine_src, crse, cgeom, fgeom, 2, 1, dcomp, 2, dst_ng);
                }
                return values(dst, dst_ng);
            };
            std::vector<Real> ref;
            {
                ScopedBackend sb(Backend::Serial);
                ref = run(true);
            }
            CheckEveryLaunch check;
            for (const Backend be : kBackends) {
                SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)));
                ScopedBackend sb(be);
                DeviceModel dev;
                dev.attach();
                const std::vector<Real> got = run(false);
                dev.detach();
                EXPECT_EQ(got, ref);
                if (be != Backend::SimGpu) continue;
                // run() itself launches its setup fills (define + setVal);
                // count the call's own launches from a second, bare call.
                MultiFab fine_src, dst_mf;
                fresh(fine_src, dst_mf);
                MultiFab& dst = alias ? fine_src : dst_mf;
                DeviceModel call;
                call.attach();
                fillPatchTwoLevels(dst, fine_src, crse, cgeom, fgeom, 2, 1, dcomp, 2, dst_ng);
                call.detach();
                const auto plan = CopierCache::instance().interpGather(
                    dst.boxArray(), cba, 2, dst_ng, cgeom.periodicity());
                EXPECT_GE(plan->numColors(), 2);
                const auto launches = launchesByKernel(call);
                EXPECT_EQ(launches.at("interp_conslin"), 1);
                EXPECT_EQ(launches.at("fab_setval"), 1);
                // The same-level copy: one launch blocking (dst == fine_src),
                // pack + delivery split-phase.
                EXPECT_EQ(launches.at("fab_copy"), plan->numColors() + (alias ? 1 : 2));
                if (first_launches) {
                    EXPECT_NE(dst.size(), first_fabs);
                    EXPECT_EQ(launches, *first_launches);
                } else {
                    first_launches = launches;
                    first_fabs = dst.size();
                }
            }
        }
    }
}
