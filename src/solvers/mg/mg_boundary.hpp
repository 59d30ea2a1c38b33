#pragma once

// MG-specific boundary plumbing for the composite-grid solver (the role
// Athena's dedicated bvals_mg layer plays): the boundary-condition
// vocabulary and the physical-boundary ghost fill, plus MgCfBoundary — the
// coarse-fine interface machinery a partially refined AMR level needs
// from its parent level. MgCfBoundary owns three jobs:
//
//   prepare(crse)        gather the coarse parents (plus tangential slope
//                        neighbors) of every coarse-fine ghost cell into
//                        per-fab scratch and evaluate the tangentially
//                        interpolated coarse value phi~ at each fine ghost
//                        center. Off-rank gather items are published as
//                        MessageRecords under the "mg-cfb" tag.
//   interpGhosts(fine)   write each coarse-fine ghost as the quadratic
//                        normal interpolant through phi~ and the first two
//                        fine interior cells (O(h^2) at the interface).
//   addFluxMismatch(...) add the reflux-style correction at uncovered
//                        coarse cells: replace the coarse one-sided face
//                        gradient with the average of the fine-face
//                        gradients across each coarse-fine face.
//
// The gather is rebuilt only at construction (layouts are immutable);
// prepare() re-reads coarse data, so it must run whenever the coarse
// solution has changed since the last smoothing pass on the fine rung.

#include "mesh/multifab.hpp"

#include <memory>
#include <vector>

namespace exa {

// Physical boundary condition applied on every domain face.
enum class MgBC {
    Periodic,
    Dirichlet, // phi = 0 on the domain boundary (faces of boundary zones)
    Neumann,   // dphi/dn = 0 on the domain boundary
};

// Physical-boundary ghost fill (Dirichlet: phi_g = -phi_i, Neumann:
// phi_g = +phi_i, Periodic: nothing — FillBoundary wrapped already).
// Every rung smoother, residual and the post-solve ghost fill
// (CompositeMg::fillCompositeGhosts) goes through it.
void mgApplyDomainBC(MultiFab& phi, const Geometry& geom, MgBC bc);

class MgCfBoundary {
public:
    MgCfBoundary(const Geometry& crse_geom, const Geometry& fine_geom,
                 const BoxArray& fine_ba, const DistributionMapping& fine_dm,
                 const BoxArray& crse_ba, const DistributionMapping& crse_dm,
                 int ratio);

    // True when the fine BoxArray has no coarse-fine ghost cells (it
    // covers the domain, or every face is physical/periodically covered).
    bool empty() const { return m_pieces.empty(); }

    // Gather coarse data under + around the fine ghost layers and compute
    // the tangential interpolant phi~ per ghost cell. `crse` must have
    // current valid data; its ghosts are not read.
    void prepare(const MultiFab& crse);

    // Fill the coarse-fine ghost cells of `fine` from the prepared phi~
    // and the first two fine interior cells along the face normal.
    // prepare() must have run since the coarse data last changed; the
    // fine interior cells are read at call time.
    void interpGhosts(MultiFab& fine) const;

    // dst(q) += sign * sum_faces[(Gf_face - Gc)] / (ratio^2 * h_c) over
    // every uncovered coarse cell q adjacent to the coarse-fine
    // interface, where Gf_face is a fine-face gradient and Gc the coarse
    // one-sided gradient across the same coarse face. With sign = -1 this
    // turns `rhs - A_c(phi_c)` into the composite residual (and builds
    // the FAS deferred-correction coarse rhs). `crse` needs filled
    // ghosts; `fine` needs freshly interpolated coarse-fine ghosts.
    void addFluxMismatch(MultiFab& dst, const MultiFab& fine,
                         const MultiFab& crse, Real sign) const;

    std::size_t numGhostCells() const { return m_nghost_cells; }

private:
    // One rectangular patch of coarse-fine ghost cells: a piece of the
    // one-cell layer outside face (dim, side) of fine fab `fab` that no
    // same-level fine box (or periodic image) covers.
    struct Piece {
        int fab = 0;
        int dim = 0;
        int side = 0;   // 0: layer below smallEnd, 1: above bigEnd
        bool quad = false; // quadratic normal stencil (fine box >= 2 deep)
        Box box;
    };
    // Gathered coarse source for one fine fab: every coarse valid region
    // (with periodic images) intersecting cbox.
    struct GatherSpec {
        int fine_fab = 0;
        Box cbox;
        FArrayBox vals; // gathered coarse values over cbox
        FArrayBox mask; // 1 where vals holds coarse valid data (set once)
    };
    // One coarse region of one gather, flat across gathers so that every
    // gather copy shares one launch.
    struct GatherItem {
        int spec = 0; // index into m_gather
        int crse_fab = 0;
        Box src;  // in the coarse fab's frame
        Box dst;  // shifted into the fine fab's (coarsened) frame
        int src_rank = 0;
        int dst_rank = 0;
    };
    // Flux-mismatch work for one (piece, coarse fab) pair.
    struct FluxItem {
        int crse_fab = 0;
        int fine_fab = 0;
        int dim = 0;
        int side = 0;
        Box crse_cells; // uncovered coarse cells, in the coarse fab frame
        IntVect sh;     // fine-frame parent index = crse index + sh
        int gn = 0;     // fine-frame normal coordinate of the ghost layer
        Box ghosts;     // the piece box (clips tangential children)
    };

    int m_ratio = 2;
    Real m_crse_dx[3] = {1.0, 1.0, 1.0};
    Real m_fine_dx[3] = {1.0, 1.0, 1.0};
    std::vector<Piece> m_pieces;
    std::vector<int> m_piece_gather;   // piece -> index into m_gather
    std::vector<FArrayBox> m_tilde;    // per piece, over piece.box
    std::vector<GatherSpec> m_gather;
    std::vector<GatherItem> m_gather_items;
    std::vector<FluxItem> m_flux;
    std::size_t m_nghost_cells = 0;
};

} // namespace exa
