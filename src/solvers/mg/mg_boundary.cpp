#include "solvers/mg/mg_boundary.hpp"

#include "core/events.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <cmath>

namespace exa {

void mgApplyDomainBC(MultiFab& phi, const Geometry& g, MgBC bc) {
    if (bc == MgBC::Periodic) return;

    // Physical BC in the face-normal ghost zones outside the domain:
    // Dirichlet: phi_g = -phi_i (value 0 on the face between them);
    // Neumann:   phi_g = +phi_i.
    // One launch over the six faces of every fab (tag = 6 * fab + 2 * dim
    // + side); faces off the domain boundary or periodic are empty tags.
    // The face slabs are disjoint and read only valid zones.
    const Real sgn = (bc == MgBC::Dirichlet) ? -1.0 : 1.0;
    const Box& dom = g.domain();
    ParallelFor(KernelInfo::streaming("mg_bc_fill", 16.0), 6 * phi.size(), 1,
                [&](std::size_t t) {
        const int i = static_cast<int>(t / 6);
        const int d = static_cast<int>(t % 6) / 2;
        const bool hi = t % 2 == 1;
        auto a = phi.array(i);
        const Box& vb = phi.box(i);
        // The interior neighbour the ghost mirrors.
        const IntVect e = hi ? -IntVect::basis(d) : IntVect::basis(d);
        Box face;
        const bool on_boundary =
            hi ? vb.bigEnd(d) == dom.bigEnd(d) : vb.smallEnd(d) == dom.smallEnd(d);
        if (!g.isPeriodic(d) && on_boundary) { // else FillBoundary wrapped it
            face = vb;
            if (hi) {
                face.growHi(d, 1).growLo(d, -vb.length(d));
            } else {
                face.growLo(d, 1).growHi(d, -vb.length(d));
            }
        }
        return std::pair{face, [=](int ii, int j, int k) {
            a(ii, j, k) = sgn * a(ii + e.x, j + e.y, k + e.z);
        }};
    });
}

// --- MgCfBoundary --------------------------------------------------------

MgCfBoundary::MgCfBoundary(const Geometry& crse_geom, const Geometry& fine_geom,
                           const BoxArray& fine_ba,
                           const DistributionMapping& fine_dm,
                           const BoxArray& crse_ba,
                           const DistributionMapping& crse_dm, int ratio)
    : m_ratio(ratio) {
    for (int d = 0; d < 3; ++d) {
        m_crse_dx[d] = crse_geom.cellSize(d);
        m_fine_dx[d] = fine_geom.cellSize(d);
    }
    const Box& fine_dom = fine_geom.domain();
    const auto fine_shifts = fine_geom.periodicity().shifts();
    const auto crse_shifts = crse_geom.periodicity().shifts();

    // 1. Coarse-fine ghost pieces: for every fine fab face, the one-cell
    // layer outside the valid box, minus physical-boundary faces (the
    // domain BC owns those ghosts) and minus same-level coverage
    // (FillBoundary owns those, periodic images included).
    const int nfine = static_cast<int>(fine_ba.size());
    for (int i = 0; i < nfine; ++i) {
        const Box& vb = fine_ba[i];
        for (int d = 0; d < 3; ++d) {
            const bool per = fine_geom.isPeriodic(d);
            for (int side = 0; side < 2; ++side) {
                if (!per && side == 0 && vb.smallEnd(d) == fine_dom.smallEnd(d))
                    continue;
                if (!per && side == 1 && vb.bigEnd(d) == fine_dom.bigEnd(d))
                    continue;
                Box layer = vb;
                if (side == 0) {
                    layer.growLo(d, 1);
                    layer.growHi(d, -(vb.length(d)));
                } else {
                    layer.growHi(d, 1);
                    layer.growLo(d, -(vb.length(d)));
                }
                std::vector<Box> rem{layer};
                for (const IntVect& s : fine_shifts) {
                    for (const auto& [j, isect] :
                         fine_ba.intersections(shift(layer, -s))) {
                        const Box image = shift(isect, s);
                        std::vector<Box> next;
                        for (const Box& p : rem) {
                            const auto diff = boxDiff(p, image);
                            next.insert(next.end(), diff.begin(), diff.end());
                        }
                        rem.swap(next);
                        if (rem.empty()) break;
                    }
                    if (rem.empty()) break;
                }
                for (const Box& p : rem) {
                    Piece piece;
                    piece.fab = i;
                    piece.dim = d;
                    piece.side = side;
                    piece.quad = vb.length(d) >= 2;
                    piece.box = p;
                    m_nghost_cells +=
                        static_cast<std::size_t>(p.numPts());
                    m_pieces.push_back(piece);
                }
            }
        }
    }

    // 2. One coarse gather per fine fab that has pieces: parents of every
    // ghost cell plus a one-cell ring for the tangential slope stencil.
    std::vector<int> fab_gather(static_cast<std::size_t>(nfine), -1);
    for (const Piece& piece : m_pieces) {
        if (fab_gather[static_cast<std::size_t>(piece.fab)] >= 0) continue;
        GatherSpec gs;
        gs.fine_fab = piece.fab;
        gs.cbox =
            coarsen(grow(fine_ba[static_cast<std::size_t>(piece.fab)], 1), ratio)
                .grow(1);
        gs.vals.define(gs.cbox, 1);
        gs.mask.define(gs.cbox, 1);
        gs.mask.setVal(0.0);
        for (const IntVect& s : crse_shifts) {
            for (const auto& [cj, isect] :
                 crse_ba.intersections(shift(gs.cbox, -s))) {
                GatherItem item;
                item.spec = static_cast<int>(m_gather.size());
                item.crse_fab = cj;
                item.src = isect;
                item.dst = shift(isect, s);
                item.src_rank = crse_dm[static_cast<std::size_t>(cj)];
                item.dst_rank = fine_dm[static_cast<std::size_t>(piece.fab)];
                gs.mask.setVal(1.0, item.dst, 0, 1);
                m_gather_items.push_back(item);
            }
        }
        fab_gather[static_cast<std::size_t>(piece.fab)] =
            static_cast<int>(m_gather.size());
        m_gather.push_back(std::move(gs));
    }
    m_piece_gather.reserve(m_pieces.size());
    m_tilde.reserve(m_pieces.size());
    for (const Piece& piece : m_pieces) {
        m_piece_gather.push_back(
            fab_gather[static_cast<std::size_t>(piece.fab)]);
        FArrayBox t(piece.box, 1);
        t.setVal(0.0);
        m_tilde.push_back(std::move(t));
    }

    // 3. Flux-mismatch items: the uncovered coarse cells under each ghost
    // piece, resolved onto coarse fabs (periodic images included).
    for (const Piece& piece : m_pieces) {
        const Box cgb = coarsen(piece.box, ratio);
        for (const IntVect& s : crse_shifts) {
            for (const auto& [cj, isect] :
                 crse_ba.intersections(shift(cgb, -s))) {
                FluxItem item;
                item.crse_fab = cj;
                item.fine_fab = piece.fab;
                item.dim = piece.dim;
                item.side = piece.side;
                item.crse_cells = isect;
                item.sh = s;
                item.gn = piece.box.smallEnd(piece.dim);
                item.ghosts = piece.box;
                m_flux.push_back(item);
            }
        }
    }
}

void MgCfBoundary::prepare(const MultiFab& crse) {
    // Zero every gather fab, then copy every coarse region in, one launch
    // each. The regions of one gather are disjoint: the coarse rung's
    // boxes are, and so are the periodic images of its domain.
    ParallelFor(FArrayBox::setValKernel(), m_gather.size(), 1, [&](std::size_t g) {
        auto a = m_gather[g].vals.array();
        return std::pair{m_gather[g].cbox, [=](int i, int j, int k) { a(i, j, k) = 0.0; }};
    });
    ParallelFor(FArrayBox::copyKernel(), m_gather_items.size(), 1, [&](std::size_t t) {
        const GatherItem& item = m_gather_items[t];
        return std::pair{item.dst,
                         m_gather[static_cast<std::size_t>(item.spec)].vals.copyBody(
                             crse.fab(item.crse_fab), item.src, 0, item.dst, 0)};
    });
    if (events::active()) {
        for (const GatherItem& item : m_gather_items) {
            if (item.src_rank == item.dst_rank) continue;
            MessageRecord r;
            r.src_rank = item.src_rank;
            r.dst_rank = item.dst_rank;
            r.bytes = item.src.numPts() * static_cast<std::int64_t>(sizeof(Real));
            r.tag = "mg-cfb";
            events::publish(r);
        }
    }
    // Tangentially interpolated coarse value at each fine ghost center.
    const int r = m_ratio;
    const Real rr = static_cast<Real>(r);
    // One launch over every piece; each writes its own scratch fab.
    ParallelFor(KernelInfo{"mg_cf_tangent", 18.0, 72.0, 40, 1.0}, m_pieces.size(), 1,
                [&](std::size_t pi) {
        const Piece& piece = m_pieces[pi];
        const GatherSpec& gs =
            m_gather[static_cast<std::size_t>(m_piece_gather[pi])];
        auto v = gs.vals.const_array();
        auto mk = gs.mask.const_array();
        auto tl = m_tilde[pi].array();
        const int t1 = (piece.dim + 1) % 3;
        const int t2 = (piece.dim + 2) % 3;
        return std::pair{piece.box, [=](int i, int j, int k) {
            const IntVect g{i, j, k};
            const IntVect C{coarsen_index(i, r), coarsen_index(j, r),
                            coarsen_index(k, r)};
            const Real c0 = v(C.x, C.y, C.z);
            Real val = c0;
            for (const int td : {t1, t2}) {
                const IntVect e = IntVect::basis(td);
                const Real delta =
                    (static_cast<Real>(g[td] - C[td] * r) + 0.5_rt) / rr -
                    0.5_rt;
                // Slope with coverage fallback: limited central where both
                // tangential neighbors hold coarse data, one-sided where
                // only one does (n_proper=1 nesting corners), else flat.
                const bool ml = mk(C.x - e.x, C.y - e.y, C.z - e.z) > 0.5;
                const bool mr = mk(C.x + e.x, C.y + e.y, C.z + e.z) > 0.5;
                Real slope = 0.0;
                if (ml && mr) {
                    const Real sl = c0 - v(C.x - e.x, C.y - e.y, C.z - e.z);
                    const Real sr = v(C.x + e.x, C.y + e.y, C.z + e.z) - c0;
                    if (sl * sr > 0.0) {
                        const Real sc = 0.5_rt * (sl + sr);
                        const Real mag = std::min(
                            {std::abs(sc), 2.0_rt * std::abs(sl),
                             2.0_rt * std::abs(sr)});
                        slope = sc > 0 ? mag : -mag;
                    }
                } else if (mr) {
                    slope = v(C.x + e.x, C.y + e.y, C.z + e.z) - c0;
                } else if (ml) {
                    slope = c0 - v(C.x - e.x, C.y - e.y, C.z - e.z);
                }
                val += delta * slope;
            }
            tl(i, j, k) = val;
        }};
    });
}

void MgCfBoundary::interpGhosts(MultiFab& fine) const {
    const Real rr = static_cast<Real>(m_ratio);
    // Quadratic normal interpolant through the tangential coarse value at
    // -r/2 (fine units from the ghost center), f1 at +1/2 and f2 at +3/2
    // toward the fine interior, evaluated at the ghost center:
    const Real wc_q = 8.0_rt / ((rr + 1.0_rt) * (rr + 3.0_rt));
    const Real w1_q = 2.0_rt * (rr - 1.0_rt) / (rr + 1.0_rt);
    const Real w2_q = -(rr - 1.0_rt) / (rr + 3.0_rt);
    // Linear fallback (fine box a single cell deep: no f2):
    const Real wc_l = 2.0_rt / (rr + 1.0_rt);
    const Real w1_l = (rr - 1.0_rt) / (rr + 1.0_rt);
    // One launch over every piece: the pieces are disjoint one-cell ghost
    // layers, and each reads only valid fine zones and its own phi~.
    ParallelFor(KernelInfo::streaming("mg_cf_interp", 20.0), m_pieces.size(), 1,
                [&](std::size_t pi) {
        const Piece& piece = m_pieces[pi];
        auto a = fine.array(piece.fab);
        auto tl = m_tilde[pi].const_array();
        const IntVect off =
            piece.side == 0 ? IntVect::basis(piece.dim) : -IntVect::basis(piece.dim);
        const bool quad = piece.quad;
        return std::pair{piece.box, [=](int i, int j, int k) {
            if (quad) {
                a(i, j, k) = wc_q * tl(i, j, k) +
                             w1_q * a(i + off.x, j + off.y, k + off.z) +
                             w2_q * a(i + 2 * off.x, j + 2 * off.y, k + 2 * off.z);
            } else {
                a(i, j, k) = wc_l * tl(i, j, k) +
                             w1_l * a(i + off.x, j + off.y, k + off.z);
            }
        }};
    });
}

// Stays one launch per item: items of neighbouring pieces accumulate
// (dA += ...) into the same uncovered coarse cells, so they may not share
// a launch.
void MgCfBoundary::addFluxMismatch(MultiFab& dst, const MultiFab& fine,
                                   const MultiFab& crse, Real sign) const {
    const int r = m_ratio;
    const Real inv_r2 = 1.0_rt / (static_cast<Real>(r) * r);
    for (const FluxItem& item : m_flux) {
        auto dA = dst.array(item.crse_fab);
        auto cA = crse.const_array(item.crse_fab);
        auto fA = fine.const_array(item.fine_fab);
        const int d = item.dim;
        const int t1 = (d + 1) % 3;
        const int t2 = (d + 2) % 3;
        const int gn = item.gn;
        // The covered coarse neighbor (and the first fine interior cell)
        // sit toward the fine region: +d of the layer on side 0, -d on
        // side 1.
        const int dir = item.side == 0 ? 1 : -1;
        const IntVect e = IntVect::basis(d);
        const IntVect sh = item.sh;
        const Box ghosts = item.ghosts;
        const Real inv_hf = 1.0_rt / m_fine_dx[d];
        const Real inv_hc = 1.0_rt / m_crse_dx[d];
        ParallelFor(KernelInfo{"mg_flux_corr", 20.0, 64.0, 40, 1.0},
                    item.crse_cells, [=](int i, int j, int k) {
            // Fine-frame parent of this uncovered coarse cell.
            const IntVect o{i + sh.x, j + sh.y, k + sh.z};
            Real acc = 0.0;
            for (int a = 0; a < r; ++a) {
                for (int b = 0; b < r; ++b) {
                    IntVect g;
                    g[d] = gn;
                    g[t1] = o[t1] * r + a;
                    g[t2] = o[t2] * r + b;
                    if (!ghosts.contains(g)) continue;
                    IntVect f1 = g;
                    f1[d] += dir;
                    // Per-face share: (Gf_face - Gc); summing the r^2
                    // faces of one coarse face recovers avg(Gf) - Gc even
                    // when the faces are split across pieces/fabs.
                    acc += (fA(f1.x, f1.y, f1.z) - fA(g.x, g.y, g.z)) *
                               inv_hf -
                           (cA(i + dir * e.x, j + dir * e.y, k + dir * e.z) -
                            cA(i, j, k)) *
                               inv_hc;
                }
            }
            dA(i, j, k) += sign * acc * inv_r2 * inv_hc;
        });
    }
}

} // namespace exa
