#pragma once

#include "mesh/multifab.hpp"

#include <algorithm>
#include <cmath>

namespace exa {

// Coarse-to-fine and fine-to-coarse transfer operators for cell-centered
// data, the building blocks of FillPatch and synchronization between AMR
// levels.

// Fill `fine` over `fine_region` (zones of the fine index space) from the
// coarse Array4 by piecewise-constant injection.
void pcInterp(Array4<Real> fine, Array4<const Real> crse, const Box& fine_region,
              int ratio, int scomp, int dcomp, int ncomp);

// Conservative linear interpolation: reconstruct a minmod-limited linear
// profile in each coarse zone and evaluate it at fine-zone centers. The
// average of the fine values over one coarse zone equals the coarse value
// exactly (conservation), because fine centers are symmetric about the
// coarse center.
void conslinInterp(Array4<Real> fine, Array4<const Real> crse, const Box& fine_region,
                   int ratio, int scomp, int dcomp, int ncomp);
// conslinInterp's kernel and zone body, body(i, j, k, n), for fused
// launches that interpolate into many fabs at once.
inline KernelInfo conslinKernel() {
    // 7-point coarse stencil read + 1 fine write per zone.
    return KernelInfo::streaming("interp_conslin", 64.0);
}

namespace detail {
// Minmod-limited central slope of crse component n along dimension d.
EXA_FORCE_INLINE Real limitedSlope(Array4<const Real> c, int i, int j, int k, int n,
                                   int d) {
    const IntVect e = IntVect::basis(d);
    const Real sl = c(i, j, k, n) - c(i - e.x, j - e.y, k - e.z, n);
    const Real sr = c(i + e.x, j + e.y, k + e.z, n) - c(i, j, k, n);
    if (sl * sr <= 0.0) return 0.0;
    const Real sc = 0.5 * (sl + sr);
    const Real mag = std::min({std::abs(sc), 2.0 * std::abs(sl), 2.0 * std::abs(sr)});
    return sc > 0 ? mag : -mag;
}
} // namespace detail

inline auto conslinBody(Array4<Real> fine, Array4<const Real> crse, int ratio, int scomp,
                        int dcomp) {
    const Real r = static_cast<Real>(ratio);
    return [=](int i, int j, int k, int n) {
        const int ic = coarsen_index(i, ratio);
        const int jc = coarsen_index(j, ratio);
        const int kc = coarsen_index(k, ratio);
        // Offset of the fine center from the coarse center, in coarse-zone
        // units; symmetric over the children of one coarse zone.
        const Real ox = (i - ic * ratio + 0.5_rt) / r - 0.5_rt;
        const Real oy = (j - jc * ratio + 0.5_rt) / r - 0.5_rt;
        const Real oz = (k - kc * ratio + 0.5_rt) / r - 0.5_rt;
        fine(i, j, k, dcomp + n) =
            crse(ic, jc, kc, scomp + n) +
            ox * detail::limitedSlope(crse, ic, jc, kc, scomp + n, 0) +
            oy * detail::limitedSlope(crse, ic, jc, kc, scomp + n, 1) +
            oz * detail::limitedSlope(crse, ic, jc, kc, scomp + n, 2);
    };
}

// Replace each coarse zone under the fine level with the arithmetic mean
// of its ratio^3 fine children (exact conservation on uniform zones).
void averageDown(MultiFab& crse, const MultiFab& fine, int ratio, int scomp,
                 int dcomp, int ncomp);

// Fill dst (valid + dst_ng ghost zones) at the fine level: copy
// same-level data from `fine_src` where available, and interpolate from
// `crse_src` everywhere else (conservative linear). `crse_src` must have
// enough ghost zones filled to support the stencil. Periodic images are
// honored (the coarse/fine Geometries supply the periodicity, so unlike
// FillBoundary/ParallelCopy there is no trailing Periodicity parameter).
//
// Canonical comm signature: components in (scomp, dcomp, ncomp) order —
// read src levels at scomp, write dst at dcomp — then the ghost width.
// When the split-phase machinery is on, the fine-level overwrite is
// posted before the coarse interpolation loop and finished after it, so
// the same-level copy is in flight while the interpolation runs.
void fillPatchTwoLevels(MultiFab& dst, const MultiFab& fine_src,
                        const MultiFab& crse_src, const Geometry& crse_geom,
                        const Geometry& fine_geom, int ratio, int scomp, int dcomp,
                        int ncomp, int dst_ng = 0);

} // namespace exa
