#pragma once

#include "mesh/multifab.hpp"

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
