#pragma once

#include "castro/state.hpp"
#include "core/array4.hpp"
#include "mesh/multifab.hpp"
#include "microphysics/eos.hpp"
#include "microphysics/network.hpp"

#include <span>

namespace exa::castro {

// The unsplit finite-volume hydrodynamics core: piecewise-linear (MC
// limited) or piecewise-parabolic reconstruction + HLLC Riemann solver,
// evaluated zone-by-zone in the per-thread style the paper's GPU port
// introduced — the slope at each face is recomputed redundantly by each
// zone instead of being staged through tile-local scratch arrays
// ("Converting this to a fully thread parallel format required
// redundantly calculating two slopes for each zone ... but exposed
// massive parallelism", Section III).
//
// The sweep does only the work its stencil needs (DESIGN §18): the face
// kernel derives the dimension stride and the zone pointer once per face
// (face_kernel.hpp) with HLLC inlined into it, a fab's regions share one
// primitive pass and one launch per kernel, and the state carries
// exactly stencilWidth ghost zones.

// Derive primitive variables q over `region` from conserved state u
// (which must be valid there), using the EOS for p and cs.
void conservedToPrimitive(Array4<const Real> u, Array4<Real> q, const Box& region,
                          const ReactionNetwork& net, const Eos& eos);

// Reconstruction scheme: piecewise linear (MC limiter) or the piecewise
// parabolic method. Production Castro uses PPM; PLM is the cheaper
// default here. Both are written in the per-zone redundant-recompute
// style.
enum class Reconstruction { PLM, PPM };

// Array4 forms of the face kernels, kept for tests and benches; the sweep
// itself calls mcSlopeAt/ppmEdgesAt and an inlined HLLC.

// MC-limited slope of primitive component n along dim at (i,j,k).
EXA_HOST_DEVICE Real mcSlope(Array4<const Real> q, int i, int j, int k, int n,
                             int dim);

// Limited PPM parabola edges (qm at the low face, qp at the high face) of
// zone (i,j,k) for component n along dim (Colella & Woodward 1984
// monotonization). Needs q valid over +-2 zones.
EXA_HOST_DEVICE void ppmEdges(Array4<const Real> q, int i, int j, int k, int n,
                              int dim, Real& qm, Real& qp);

// HLLC flux for the Euler system + passive species, from left/right
// primitive states (PrimLayout order, including QREINT and QC, so no
// gamma assumption enters — the solver works for any convex EOS). flux
// has StateLayout(nspec).ncomp() entries (the UTEMP slot is set to zero).
void hllcFlux(const Real* ql, const Real* qr, int nspec, int dim, Real* flux);

// Ghost-zone stencil width of the reconstruction: how far molRhs reads
// past a region it updates (PLM: 1 face + 1 slope zone; PPM: +-2 around
// each face). This is the width the interior/boundary partition uses —
// zones deeper than this inside the valid box never see ghost data — and
// the ghost width of every Castro state MultiFab.
inline int stencilWidth(Reconstruction recon) {
    return recon == Reconstruction::PPM ? 3 : 2;
}

// Compute dU/dt (the method-of-lines RHS) over each fab's valid box from
// state ghosts already filled. Returns fluxes per dimension if `fluxes`
// is non-null (face-indexed MultiFabs, for refluxing/conservation checks).
void molRhs(const MultiFab& state, MultiFab& dudt, const Geometry& geom,
            const ReactionNetwork& net, const Eos& eos,
            std::array<MultiFab, 3>* fluxes = nullptr,
            Reconstruction recon = Reconstruction::PLM);

// Region-restricted RHS: the same kernels, evaluated only over `regions`
// (disjoint subsets of fab `fab`'s valid box). One primitive pass covers
// grow(bounding box of regions, stencilWidth(recon)); one flux launch
// then covers every (region, direction) tag and one update launch every
// region, so a call makes one launch per kernel whatever the list's
// length (DESIGN.md §18). Sweeping any disjoint cover of the valid box —
// e.g. a CopierCache interior partition's interior box while a halo
// exchange is in flight, then the whole boundary shell list after
// finish() — reproduces the whole-fab molRhs bit-for-bit, because every
// zone's update is a pure function of the input state. The launches are
// fused per fab, not per level: each region's face-flux scratch lives
// until the fab's update has run, and a level-wide launch would hold
// every fab's primitive and flux scratch at once.
void molRhsRegions(const MultiFab& state, MultiFab& dudt, int fab,
                   std::span<const Box> regions, const Geometry& geom,
                   const ReactionNetwork& net, const Eos& eos,
                   std::array<MultiFab, 3>* fluxes = nullptr,
                   Reconstruction recon = Reconstruction::PLM);

// CFL timestep: min over zones of dx_d / (|u_d| + cs).
Real estimateDt(const MultiFab& state, const Geometry& geom,
                const ReactionNetwork& net, const Eos& eos, Real cfl);

// Reset derived quantities after an update: clamp small/negative density,
// renormalize species, recompute temperature from the EOS.
void enforceConsistency(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                        Real small_dens = 1.0e-12);

} // namespace exa::castro
