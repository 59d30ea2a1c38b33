#include "mesh/interp.hpp"

#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"

#include <cassert>
#include <cmath>

namespace exa {

namespace {
// Minmod-limited central slope of crse component n along dimension d.
EXA_FORCE_INLINE Real limited_slope(Array4<const Real> c, int i, int j, int k, int n,
                                    int d) {
    const IntVect e = IntVect::basis(d);
    const Real sl = c(i, j, k, n) - c(i - e.x, j - e.y, k - e.z, n);
    const Real sr = c(i + e.x, j + e.y, k + e.z, n) - c(i, j, k, n);
    if (sl * sr <= 0.0) return 0.0;
    const Real sc = 0.5 * (sl + sr);
    const Real mag = std::min({std::abs(sc), 2.0 * std::abs(sl), 2.0 * std::abs(sr)});
    return sc > 0 ? mag : -mag;
}
} // namespace

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
    const Real r = static_cast<Real>(ratio);
    // 7-point coarse stencil read + 1 fine write per zone.
    ParallelFor(KernelInfo::streaming("interp_conslin", 64.0), fine_region,
                ncomp, [=](int i, int j, int k, int n) {
        const int ic = coarsen_index(i, ratio);
        const int jc = coarsen_index(j, ratio);
        const int kc = coarsen_index(k, ratio);
        // Offset of the fine center from the coarse center, in coarse-zone
        // units; symmetric over the children of one coarse zone.
        const Real ox = (i - ic * ratio + 0.5_rt) / r - 0.5_rt;
        const Real oy = (j - jc * ratio + 0.5_rt) / r - 0.5_rt;
        const Real oz = (k - kc * ratio + 0.5_rt) / r - 0.5_rt;
        fine(i, j, k, dcomp + n) = crse(ic, jc, kc, scomp + n) +
                                   ox * limited_slope(crse, ic, jc, kc, scomp + n, 0) +
                                   oy * limited_slope(crse, ic, jc, kc, scomp + n, 1) +
                                   oz * limited_slope(crse, ic, jc, kc, scomp + n, 2);
    });
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
// level. We build a scratch coarse fab around each destination region so
// the slope stencil has data, filled by copies from the coarse level.
//
// Stays one launch per copy: crse_src's BoxArray may overlap itself, so
// the regions gathered into ctmp may overlap and resolve by gather
// order, which one launch cannot keep.
void interpFromCoarse(MultiFab& dst, const MultiFab& crse_src,
                      const Geometry& crse_geom, int ratio, int scomp, int dcomp,
                      int ncomp, int dst_ng) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const Box fdst = grow(dst.box(static_cast<int>(i)), dst_ng);
        Box cbox = coarsen(fdst, ratio);
        cbox.grow(1); // slope stencil
        FArrayBox ctmp(cbox, ncomp);
        ctmp.setVal(0.0);
        // Gather coarse valid data (with periodic images of the valid
        // regions) into ctmp. Ghost zones of the source are not used: they
        // may be stale, and their periodic images could overwrite correct
        // valid data.
        const auto shifts = crse_geom.periodicity().shifts();
        for (const IntVect& s : shifts) {
            // src_box = crse_ba[j] & shift(cbox, -s) equals the legacy
            // shift(cbox & image, -s), and the hashed query returns
            // ascending j, so the gather order (and hence any overlap
            // resolution) is unchanged.
            for (const auto& [j, src_box] :
                 crse_src.boxArray().intersections(shift(cbox, -s))) {
                ctmp.copyFrom(crse_src.fab(j), src_box, scomp, shift(src_box, s), 0,
                              ncomp);
            }
        }
        conslinInterp(dst.array(static_cast<int>(i)), ctmp.const_array(), fdst, ratio,
                      0, dcomp, ncomp);
    }
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
