#include "mesh/flux_register.hpp"

#include "core/parallel_for.hpp"

#include <cassert>
#include <cmath>

namespace exa {

std::array<MultiFab, 3> makeFluxFabs(const BoxArray& ba,
                                     const DistributionMapping& dm, int ncomp) {
    std::array<MultiFab, 3> flux;
    for (int d = 0; d < 3; ++d) {
        std::vector<Box> faces;
        faces.reserve(ba.size());
        for (std::size_t i = 0; i < ba.size(); ++i) {
            faces.push_back(surroundingFaces(ba[i], d));
        }
        flux[d].define(BoxArray(std::move(faces)), dm, ncomp, 0);
        flux[d].setVal(0.0);
    }
    return flux;
}

void FluxRegister::define(const BoxArray& fine_ba, const DistributionMapping& fine_dm,
                          int ratio, int ncomp) {
    assert(ratio > 1 && ncomp > 0);
    clear();
    m_ratio = ratio;
    m_ncomp = ncomp;
    m_cba = fine_ba;
    m_cba.coarsen(ratio);
    for (int d = 0; d < 3; ++d) {
        std::vector<Box> faces;
        faces.reserve(m_cba.size());
        for (std::size_t i = 0; i < m_cba.size(); ++i) {
            faces.push_back(surroundingFaces(m_cba[i], d));
        }
        m_reg[d].define(BoxArray(std::move(faces)), fine_dm, ncomp, 0);
        m_reg[d].setVal(0.0);
    }
}

void FluxRegister::clear() {
    for (int d = 0; d < 3; ++d) m_reg[d].clear();
    m_cba = BoxArray{};
    m_ratio = 0;
    m_ncomp = 0;
    m_reflux.clear();
    m_reflux_colors = LaunchColors{};
    m_reflux_ba = 0;
}

void FluxRegister::setVal(Real v) {
    for (int d = 0; d < 3; ++d) m_reg[d].setVal(v);
}

void FluxRegister::CrseAdd(const std::array<MultiFab, 3>& crse_flux, Real scale) {
    assert(isDefined());
    // Gather the coarse fluxes covering every register fab with overwrite
    // semantics: adjacent coarse boxes both carry their shared face (with
    // identical values), so add-per-overlap would double-count it. Scratch
    // d * nfab + i holds register fab i of direction d. The plan is built
    // per call: callers make fresh flux fabs (new layout ids) every advance.
    GatherPlan gather;
    for (int d = 0; d < 3; ++d)
        gather.add(m_reg[d].boxArray().boxes(), crse_flux[d].boxArray());
    std::vector<FArrayBox> tmp;
    const MultiFab* const src[] = {&crse_flux[0], &crse_flux[1], &crse_flux[2]};
    gather.run(src, 0, m_ncomp, tmp);
    const std::size_t nfab = m_cba.size();
    ParallelFor(FArrayBox::saxpyKernel(), tmp.size(), m_ncomp, [&](std::size_t t) {
        MultiFab& reg = m_reg[t / nfab];
        const int fi = static_cast<int>(t % nfab);
        return std::pair{reg.box(fi), reg.fab(fi).saxpyBody(scale, tmp[t], 0, 0)};
    });
}

void FluxRegister::FineAdd(const std::array<MultiFab, 3>& fine_flux, Real scale) {
    assert(isDefined());
    const int r = m_ratio;
    const Real w = scale / (static_cast<Real>(r) * r); // area mean of r^2 faces
    const KernelInfo info =
        KernelInfo::streaming("fluxreg_fine_add", (m_ratio * m_ratio + 1) * 8.0);
    // One launch over every (direction, fab): tag d * nfab + i.
    const std::size_t nfab = m_cba.size();
    ParallelFor(info, 3 * nfab, m_ncomp, [&](std::size_t t) {
        const int d = static_cast<int>(t / nfab);
        const int fi = static_cast<int>(t % nfab);
        auto reg = m_reg[d].array(fi);
        auto f = fine_flux[d].const_array(fi);
        return std::pair{m_reg[d].box(fi), [=](int i0, int j0, int k0, int n) {
            // Coarse face -> fine faces: the normal coordinate is a
            // face index (maps as c -> c*r, one fine face per coarse
            // face); the transverse coordinates are zone indices
            // (each spans r fine zones).
            Real s = 0.0;
            if (d == 0) {
                for (int kk = 0; kk < r; ++kk)
                    for (int jj = 0; jj < r; ++jj)
                        s += f(i0 * r, j0 * r + jj, k0 * r + kk, n);
            } else if (d == 1) {
                for (int kk = 0; kk < r; ++kk)
                    for (int ii = 0; ii < r; ++ii)
                        s += f(i0 * r + ii, j0 * r, k0 * r + kk, n);
            } else {
                for (int jj = 0; jj < r; ++jj)
                    for (int ii = 0; ii < r; ++ii)
                        s += f(i0 * r + ii, j0 * r + jj, k0 * r, n);
            }
            reg(i0, j0, k0, n) += w * s;
        }};
    });
}

void FluxRegister::buildReflux(const BoxArray& crse_ba, const Geometry& crse_geom) {
    m_reflux.clear();
    m_reflux_colors = LaunchColors{};
    const Box& dom = crse_geom.domain();
    for (int d = 0; d < 3; ++d) {
        for (std::size_t i = 0; i < m_cba.size(); ++i) {
            const Box& cb = m_cba[i];
            for (int side = 0; side < 2; ++side) {
                const bool lo = side == 0;
                // Face plane on this side of the fine box, and the coarse
                // zone plane just outside it (the zones that advanced with
                // the uncorrected coarse flux).
                const int fn = lo ? cb.smallEnd(d) : cb.bigEnd(d) + 1;
                int zn = lo ? fn - 1 : fn;
                IntVect zlo = cb.smallEnd();
                IntVect zhi = cb.bigEnd();
                zlo[d] = zn;
                zhi[d] = zn;
                Box zplane(zlo, zhi);
                if (zn < dom.smallEnd(d) || zn > dom.bigEnd(d)) {
                    if (!crse_geom.isPeriodic(d)) continue; // domain edge
                    const int shift = zn < dom.smallEnd(d) ? dom.length(d)
                                                           : -dom.length(d);
                    zplane.shift(d, shift);
                }
                // Mask out zones covered by the fine level itself (shared
                // interior faces of the fine union correct nothing).
                std::vector<Box> pieces{zplane};
                for (const auto& [jf, isect] : m_cba.intersections(zplane)) {
                    (void)isect;
                    std::vector<Box> next;
                    for (const Box& p : pieces) {
                        for (const Box& q : boxDiff(p, m_cba[jf])) next.push_back(q);
                    }
                    pieces = std::move(next);
                    if (pieces.empty()) break;
                }
                for (const Box& p : pieces) {
                    for (const auto& [j, isect] : crse_ba.intersections(p)) {
                        m_reflux.push_back(RefluxItem{d, static_cast<int>(i), j, fn,
                                                      lo ? -1.0 : 1.0, isect});
                        m_reflux_colors.add(j, isect);
                    }
                }
            }
        }
    }
    m_reflux_ba = crse_ba.id();
    m_reflux_domain = dom;
    m_reflux_period = {crse_geom.periodicity().period(0), crse_geom.periodicity().period(1),
                       crse_geom.periodicity().period(2)};
}

void FluxRegister::Reflux(MultiFab& crse, const Geometry& crse_geom) {
    assert(isDefined());
    const Periodicity per = crse_geom.periodicity();
    if (crse.boxArray().id() != m_reflux_ba || crse_geom.domain() != m_reflux_domain ||
        IntVect{per.period(0), per.period(1), per.period(2)} != m_reflux_period) {
        buildReflux(crse.boxArray(), crse_geom);
    }
    // Zones outside an L-shaped fine level's inner corner, or next to two
    // fine boxes, take more than one +=, so the items launch by colour.
    ParallelFor(KernelInfo::streaming("fluxreg_reflux", 24.0), m_reflux_colors, m_ncomp,
                [&](std::size_t t) {
        const RefluxItem& item = m_reflux[t];
        auto u = crse.array(item.crse_fab);
        auto reg = m_reg[item.dim].const_array(item.reg_fab);
        const int dd = item.dim;
        const int face_n = item.face;
        const Real c = item.sign * (1.0 / crse_geom.cellSize(dd));
        return std::pair{item.zones, [=](int i0, int j0, int k0, int n) {
            // Register face of this zone: replace the normal coordinate
            // with the (unwrapped) face index; transverse coordinates are
            // unshifted by the periodic wrap (which acts along d).
            IntVect fp{i0, j0, k0};
            fp[dd] = face_n;
            u(i0, j0, k0, n) += c * reg(fp.x, fp.y, fp.z, n);
        }};
    });
}

Real FluxRegister::absSum() const {
    Real s = 0.0;
    for (int d = 0; d < 3; ++d) {
        for (std::size_t i = 0; i < m_reg[d].size(); ++i) {
            auto a = m_reg[d].const_array(static_cast<int>(i));
            const Box& fb = m_reg[d].box(static_cast<int>(i));
            for (int n = 0; n < m_ncomp; ++n)
                for (int k = fb.smallEnd(2); k <= fb.bigEnd(2); ++k)
                    for (int j = fb.smallEnd(1); j <= fb.bigEnd(1); ++j)
                        for (int i0 = fb.smallEnd(0); i0 <= fb.bigEnd(0); ++i0)
                            s += std::abs(a(i0, j, k, n));
        }
    }
    return s;
}

} // namespace exa
