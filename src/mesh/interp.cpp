#include "mesh/interp.hpp"

#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"

#include <cassert>
#include <cmath>

namespace exa {

void pcInterp(Array4<Real> fine, Array4<const Real> crse, const Box& fine_region,
              int ratio, int scomp, int dcomp, int ncomp) {
    ParallelFor(KernelInfo::streaming("interp_pc", 16.0), fine_region, ncomp,
                [=](int i, int j, int k, int n) {
        fine(i, j, k, dcomp + n) = crse(coarsen_index(i, ratio), coarsen_index(j, ratio),
                                        coarsen_index(k, ratio), scomp + n);
    });
}

void conslinInterp(Array4<Real> fine, Array4<const Real> crse, const Box& fine_region,
                   int ratio, int scomp, int dcomp, int ncomp) {
    ParallelFor(conslinKernel(), fine_region, ncomp,
                conslinBody(fine, crse, ratio, scomp, dcomp));
}

void averageDown(MultiFab& crse, const MultiFab& fine, int ratio, int scomp,
                 int dcomp, int ncomp) {
    const Real inv = 1.0_rt / (static_cast<Real>(ratio) * ratio * ratio);
    // The (coarse fab, fine fab, under-region) triples are layout metadata,
    // memoized in the CopierCache across repeated level syncs.
    const auto plan = CopierCache::instance().averageDown(crse.boxArray(),
                                                          fine.boxArray(), ratio);
    const KernelInfo info =
        KernelInfo::streaming("avg_down", (ratio * ratio * ratio + 1) * 8.0);
    // One launch for every (coarse, fine) pair: the items' coarse regions
    // are disjoint.
    ParallelFor(info, plan->items.size(), ncomp, [&](std::size_t t) {
        const CopyItem& item = plan->items[t];
        auto c = crse.array(item.dst_fab);
        auto f = fine.const_array(item.src_fab);
        return std::pair{item.dst_box, [=](int i, int j, int k, int n) {
            Real s = 0;
            for (int kk = 0; kk < ratio; ++kk)
                for (int jj = 0; jj < ratio; ++jj)
                    for (int ii = 0; ii < ratio; ++ii)
                        s += f(i * ratio + ii, j * ratio + jj, k * ratio + kk,
                               scomp + n);
            c(i, j, k, dcomp + n) = s * inv;
        }};
    });
}

namespace {

// Step 1 of fillPatchTwoLevels: interpolate everywhere from the coarse
// level. The cached gather plan copies the coarse valid data (with its
// periodic images) under and around every destination region into one
// scratch per fab, so the slope stencil has data; then one launch
// interpolates into every fab.
void interpFromCoarse(MultiFab& dst, const MultiFab& crse_src,
                      const Geometry& crse_geom, int ratio, int scomp, int dcomp,
                      int ncomp, int dst_ng) {
    const auto plan = CopierCache::instance().interpGather(
        dst.boxArray(), crse_src.boxArray(), ratio, dst_ng, crse_geom.periodicity());
    std::vector<FArrayBox> ctmp;
    plan->run(crse_src, scomp, ncomp, ctmp);
    ParallelFor(conslinKernel(), dst.size(), ncomp, [&](std::size_t i) {
        const int fi = static_cast<int>(i);
        return std::pair{grow(dst.box(fi), dst_ng),
                         conslinBody(dst.array(fi), ctmp[i].const_array(), ratio, 0, dcomp)};
    });
}

} // namespace

void fillPatchTwoLevels(MultiFab& dst, const MultiFab& fine_src,
                        const MultiFab& crse_src, const Geometry& crse_geom,
                        const Geometry& fine_geom, int ratio, int scomp, int dcomp,
                        int ncomp, int dst_ng) {
    assert(dst_ng <= dst.nGrow());
    // When dst aliases fine_src (MakeNewLevelFromCoarse's no-op self-copy
    // idiom) posting first would pack pre-interpolation data, so the copy
    // runs after the interpolation.
    if (&dst == &fine_src) {
        interpFromCoarse(dst, crse_src, crse_geom, ratio, scomp, dcomp, ncomp,
                         dst_ng);
        dst.ParallelCopy(fine_src, scomp, dcomp, ncomp, dst_ng,
                         fine_geom.periodicity());
        return;
    }
    // Post the same-level overwrite first: the payload (fine_src valid
    // regions) is packed now, the interpolation loop runs while the copy
    // is "in flight", and finish() delivers the fine data on top of the
    // freshly interpolated zones (valid regions + periodic images).
    comm::HaloHandle halo = dst.ParallelCopy_nowait(fine_src, scomp, dcomp, ncomp, dst_ng,
                                                    fine_geom.periodicity());
    interpFromCoarse(dst, crse_src, crse_geom, ratio, scomp, dcomp, ncomp, dst_ng);
    halo.finish();
}

} // namespace exa
