#include "castro/hydro.hpp"

#include "castro/face_kernel.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace exa::castro {

namespace {

// The per-zone cost parameters describe the *production* Castro kernels
// the device model is standing in for (PPM reconstruction with
// characteristic tracing, dual-energy bookkeeping, Helmholtz EOS calls),
// which are richer than the PLM+HLLC scheme implemented here. They are
// calibrated so the modeled single-V100 Sedov throughput lands near the
// paper's ~25 zones/usec (Section IV).
KernelInfo primKernel(int nspec) {
    return KernelInfo{"hydro_ctoprim", 1100.0 + 30.0 * nspec, 400.0 + 16.0 * nspec,
                      96, 1.0};
}
KernelInfo fluxKernel(int nspec) {
    return KernelInfo{"hydro_flux", 3300.0 + 60.0 * nspec, 1250.0 + 32.0 * nspec, 168,
                      1.0};
}
KernelInfo updateKernel(int nspec) {
    return KernelInfo{"cons_update", 140.0 + 8.0 * nspec, 360.0 + 24.0 * nspec, 64,
                      1.0};
}

// The per-zone kernels below keep species scratch in fixed stack arrays
// (GPU register idiom: X[32], ql/qr[40]); a network wider than that would
// silently overrun them. Reject it loudly instead.
constexpr int max_kernel_nspec = 32;
void checkKernelSpeciesLimit(int nspec) {
    if (nspec > max_kernel_nspec) {
        throw std::invalid_argument(
            "castro hydro kernels support at most " +
            std::to_string(max_kernel_nspec) + " species, got " +
            std::to_string(nspec));
    }
}

} // namespace

void conservedToPrimitive(Array4<const Real> u, Array4<Real> q, const Box& region,
                          const ReactionNetwork& net, const Eos& eos) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const PrimLayout Q(nspec);
    constexpr int URHO = StateLayout::URHO;
    constexpr int UMX = StateLayout::UMX;
    constexpr int UEDEN = StateLayout::UEDEN;
    constexpr int UFS = StateLayout::UFS;
    const ReactionNetwork* netp = &net;
    const Eos* eosp = &eos;
    ParallelFor(primKernel(nspec), region, [=](int i, int j, int k) {
        const Real rho = std::max(u(i, j, k, URHO), Real(1.0e-30));
        const Real rinv = 1.0 / rho;
        const Real vx = u(i, j, k, UMX) * rinv;
        const Real vy = u(i, j, k, UMX + 1) * rinv;
        const Real vz = u(i, j, k, UMX + 2) * rinv;
        Real X[32];
        for (int n = 0; n < nspec; ++n) {
            X[n] = std::clamp(u(i, j, k, UFS + n) * rinv, Real(0), Real(1));
        }
        const Real ke = 0.5 * (vx * vx + vy * vy + vz * vz);
        const Real e = std::max(u(i, j, k, UEDEN) * rinv - ke, Real(1.0e-30));
        EosState s;
        s.rho = rho;
        s.e = e;
        s.abar = netp->abar(X);
        s.ye = netp->ye(X);
        eosp->rhoE(s);
        q(i, j, k, PrimLayout::QRHO) = rho;
        q(i, j, k, PrimLayout::QU) = vx;
        q(i, j, k, PrimLayout::QV) = vy;
        q(i, j, k, PrimLayout::QW) = vz;
        q(i, j, k, PrimLayout::QP) = s.p;
        q(i, j, k, PrimLayout::QREINT) = rho * e;
        q(i, j, k, PrimLayout::QC) = s.cs;
        for (int n = 0; n < nspec; ++n) q(i, j, k, PrimLayout::QFS + n) = X[n];
    });
}

Real mcSlope(Array4<const Real> q, int i, int j, int k, int n, int dim) {
    return mcSlopeAt(&q(i, j, k, n), faceStride(q, dim));
}

void ppmEdges(Array4<const Real> q, int i, int j, int k, int n, int dim, Real& qm,
              Real& qp) {
    ppmEdgesAt(&q(i, j, k, n), faceStride(q, dim), qm, qp);
}

namespace {

// HLLC flux body, force-inlined into the face kernels. The scratch
// arrays are not zero-filled: every entry read below is written first.
EXA_FORCE_INLINE void hllcFace(const Real* ql, const Real* qr, int nspec, int dim,
                               Real* flux) {
    const StateLayout S(nspec);
    const int nstate = S.ncomp();
    const int iu = PrimLayout::QU + dim; // normal velocity slot

    auto buildU = [&](const Real* q, Real* U, Real& un, Real& p, Real& c) {
        const Real rho = q[PrimLayout::QRHO];
        const Real vx = q[PrimLayout::QU];
        const Real vy = q[PrimLayout::QV];
        const Real vz = q[PrimLayout::QW];
        p = q[PrimLayout::QP];
        c = q[PrimLayout::QC];
        un = q[iu];
        U[StateLayout::URHO] = rho;
        U[StateLayout::UMX] = rho * vx;
        U[StateLayout::UMX + 1] = rho * vy;
        U[StateLayout::UMX + 2] = rho * vz;
        U[StateLayout::UEDEN] =
            q[PrimLayout::QREINT] + 0.5 * rho * (vx * vx + vy * vy + vz * vz);
        U[StateLayout::UTEMP] = 0.0;
        for (int n = 0; n < nspec; ++n) {
            U[StateLayout::UFS + n] = rho * q[PrimLayout::QFS + n];
        }
    };
    // The fixed components are written one by one, so the compiler can
    // see every entry of F written before it is read.
    auto physFlux = [&](const Real* U, Real un, Real p, Real* F) {
        F[StateLayout::URHO] = un * U[StateLayout::URHO];
        F[StateLayout::UMX] = un * U[StateLayout::UMX];
        F[StateLayout::UMX + 1] = un * U[StateLayout::UMX + 1];
        F[StateLayout::UMX + 2] = un * U[StateLayout::UMX + 2];
        F[StateLayout::UMX + dim] += p;
        F[StateLayout::UEDEN] = un * U[StateLayout::UEDEN] + p * un;
        F[StateLayout::UTEMP] = 0.0;
        for (int n = 0; n < nspec; ++n) {
            F[StateLayout::UFS + n] = un * U[StateLayout::UFS + n];
        }
    };

    Real UL[40], UR[40], FL[40], FR[40];
    Real unl, pl, cl, unr, pr, cr;
    buildU(ql, UL, unl, pl, cl);
    buildU(qr, UR, unr, pr, cr);
    physFlux(UL, unl, pl, FL);
    physFlux(UR, unr, pr, FR);

    const Real rl = ql[PrimLayout::QRHO];
    const Real rr = qr[PrimLayout::QRHO];
    const Real sl = std::min(unl - cl, unr - cr);
    const Real sr = std::max(unl + cl, unr + cr);
    const Real denom = rl * (sl - unl) - rr * (sr - unr);
    const Real sstar =
        std::abs(denom) > 1.0e-30
            ? (pr - pl + rl * unl * (sl - unl) - rr * unr * (sr - unr)) / denom
            : 0.5 * (unl + unr);

    if (sl >= 0.0) {
        for (int n = 0; n < nstate; ++n) flux[n] = FL[n];
        return;
    }
    if (sr <= 0.0) {
        for (int n = 0; n < nstate; ++n) flux[n] = FR[n];
        return;
    }

    auto starFlux = [&](const Real* U, const Real* F, const Real* q, Real un, Real p,
                        Real s) {
        const Real rho = q[PrimLayout::QRHO];
        const Real fac = rho * (s - un) / (s - sstar);
        Real Ustar[40];
        Ustar[StateLayout::URHO] = fac;
        Ustar[StateLayout::UMX] = fac * q[PrimLayout::QU];
        Ustar[StateLayout::UMX + 1] = fac * q[PrimLayout::QV];
        Ustar[StateLayout::UMX + 2] = fac * q[PrimLayout::QW];
        Ustar[StateLayout::UMX + dim] = fac * sstar;
        Ustar[StateLayout::UEDEN] =
            fac * (U[StateLayout::UEDEN] / rho +
                   (sstar - un) * (sstar + p / (rho * (s - un))));
        Ustar[StateLayout::UTEMP] = 0.0;
        for (int n = 0; n < nspec; ++n) {
            Ustar[StateLayout::UFS + n] = fac * q[PrimLayout::QFS + n];
        }
        for (int n = 0; n < nstate; ++n) flux[n] = F[n] + s * (Ustar[n] - U[n]);
        flux[StateLayout::UTEMP] = 0.0;
    };

    if (sstar >= 0.0) {
        starFlux(UL, FL, ql, unl, pl, sl);
    } else {
        starFlux(UR, FR, qr, unr, pr, sr);
    }
}

// The face-flux zone body along d, writing fx: the left state is zone
// (i,j,k)-e reconstructed toward its high face, the right state zone
// (i,j,k) toward its low face. The slopes (or parabola edges) are
// recomputed here, per face, per zone — the paper's redundant-recompute
// formulation. A per-tag factory of the fused flux launch: the stride is
// derived once per tag and the zone pointers once per face; the
// component loop walks them by the primitive fab's nstride.
template <bool PPM>
auto faceFluxes(Array4<const Real> q, Array4<Real> fx, int d, int nspec) {
    const std::int64_t s = faceStride(q, d);
    const std::int64_t qn = q.nstride;
    const std::int64_t fn = fx.nstride;
    const int nq = PrimLayout::QFS + nspec;
    const int nf = StateLayout::UFS + nspec;
    return [=](int i, int j, int k) {
        const Real* zr = &q(i, j, k, 0);
        const Real* zl = zr - s;
        Real ql[40], qr[40];
        for (int n = 0; n < nq; ++n) {
            const Real* a = zl + n * qn;
            const Real* b = zr + n * qn;
            if constexpr (PPM) {
                Real lm, lp, rm, rp;
                ppmEdgesAt(a, s, lm, lp);
                ppmEdgesAt(b, s, rm, rp);
                ql[n] = lp; // high edge of the left zone
                qr[n] = rm; // low edge of the right zone
            } else {
                const Real sll = mcSlopeAt(a, s);
                const Real slr = mcSlopeAt(b, s);
                ql[n] = a[0] + 0.5 * sll;
                qr[n] = b[0] - 0.5 * slr;
            }
        }
        // Guard reconstructed rho/p against undershoot.
        ql[PrimLayout::QRHO] = std::max(ql[PrimLayout::QRHO], Real(1.0e-30));
        qr[PrimLayout::QRHO] = std::max(qr[PrimLayout::QRHO], Real(1.0e-30));
        ql[PrimLayout::QP] = std::max(ql[PrimLayout::QP], Real(1.0e-30));
        qr[PrimLayout::QP] = std::max(qr[PrimLayout::QP], Real(1.0e-30));
        ql[PrimLayout::QREINT] = std::max(ql[PrimLayout::QREINT], Real(1.0e-30));
        qr[PrimLayout::QREINT] = std::max(qr[PrimLayout::QREINT], Real(1.0e-30));
        Real fl[40];
        hllcFace(ql, qr, nspec, d, fl);
        Real* out = &fx(i, j, k, 0);
        for (int n = 0; n < nf; ++n) out[n * fn] = fl[n];
    };
}

} // namespace

void hllcFlux(const Real* ql, const Real* qr, int nspec, int dim, Real* flux) {
    hllcFace(ql, qr, nspec, dim, flux);
}

void molRhsRegions(const MultiFab& state, MultiFab& dudt, int fab,
                   std::span<const Box> regions, const Geometry& geom,
                   const ReactionNetwork& net, const Eos& eos,
                   std::array<MultiFab, 3>* fluxes, Reconstruction recon) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const int nstate = StateLayout(nspec).ncomp();
    const bool ppm = recon == Reconstruction::PPM;

    // One primitive pass over every zone any region's stencil reads.
    Box bbox;
    for (const Box& r : regions) {
        if (!r.ok()) continue;
        bbox = bbox.ok() ? Box(min(bbox.smallEnd(), r.smallEnd()),
                               max(bbox.bigEnd(), r.bigEnd()))
                         : r;
    }
    if (!bbox.ok()) return;
    const Box primbox = grow(bbox, stencilWidth(recon));
    FArrayBox qfab(primbox, PrimLayout(nspec).ncomp());
    conservedToPrimitive(state.const_array(fab), qfab.array(), primbox, net, eos);
    auto q = qfab.const_array();

    // Face-flux scratch, one fab per (region, direction), all defined
    // before the fused launch so every tag writes its own fab (from the
    // pool arena — the per-step scratch pattern of the allocator
    // ablation).
    const std::size_t nr = regions.size();
    std::vector<std::array<FArrayBox, 3>> fxfab(nr);
    for (std::size_t r = 0; r < nr; ++r) {
        if (!regions[r].ok()) continue;
        for (int d = 0; d < 3; ++d) {
            fxfab[r][d].define(surroundingFaces(regions[r], d), nstate);
        }
    }

    // One flux launch over every (region, direction) tag, in the order
    // t = 3 * region + direction.
    KernelInfo fk = fluxKernel(nspec);
    if (ppm) fk.name = "hydro_flux_ppm";
    auto fluxLaunch = [&](auto use_ppm) {
        ParallelFor(fk, 3 * nr, 1, [&](std::size_t t) {
            FArrayBox& fx = fxfab[t / 3][t % 3];
            return std::pair{fx.box(),
                             faceFluxes<decltype(use_ppm)::value>(
                                 q, fx.array(), static_cast<int>(t % 3), nspec)};
        });
    };
    if (ppm) {
        fluxLaunch(std::true_type{});
    } else {
        fluxLaunch(std::false_type{});
    }

    // Conservative divergence: one launch over the regions.
    const Real dxi = 1.0 / geom.cellSize(0);
    const Real dyi = 1.0 / geom.cellSize(1);
    const Real dzi = 1.0 / geom.cellSize(2);
    auto du = dudt.array(fab);
    ParallelFor(updateKernel(nspec), nr, nstate, [&](std::size_t r) {
        auto fx = fxfab[r][0].const_array();
        auto fy = fxfab[r][1].const_array();
        auto fz = fxfab[r][2].const_array();
        return std::pair{regions[r], [=](int i, int j, int k, int n) {
            du(i, j, k, n) = -(fx(i + 1, j, k, n) - fx(i, j, k, n)) * dxi -
                             (fy(i, j + 1, k, n) - fy(i, j, k, n)) * dyi -
                             (fz(i, j, k + 1, n) - fz(i, j, k, n)) * dzi;
        }};
    });

    // Injection site: a NaN escapes the flux computation into the update
    // of this fab's first valid zone. Plain host write, after the launch,
    // so Backend::Debug order replay is unaffected. Fired only when a
    // region holds the fab's first valid zone, so a region-split sweep
    // consumes exactly one fault-schedule slot per fab — the same as the
    // whole-fab sweep.
    const IntVect lo = state.box(fab).smallEnd();
    if (std::ranges::any_of(regions, [&](const Box& r) { return r.contains(lo); }) &&
        fault::shouldFire(fault::Site::HydroNanFlux)) {
        dudt.fab(fab).array()(lo.x, lo.y, lo.z, StateLayout::UEDEN) =
            std::numeric_limits<Real>::quiet_NaN();
    }

    // Register copies: one launch per region over its three directions,
    // which write three different MultiFabs. Adjacent regions share faces,
    // so the regions stay one launch each, in list order.
    if (fluxes != nullptr) {
        for (std::size_t r = 0; r < nr; ++r) {
            if (!regions[r].ok()) continue;
            ParallelFor(FArrayBox::copyKernel(), 3, nstate, [&](std::size_t d) {
                const Box& fb = fxfab[r][d].box();
                return std::pair{fb, (*fluxes)[d].fab(fab).copyBody(fxfab[r][d], fb, 0, fb, 0)};
            });
        }
    }
}

void molRhs(const MultiFab& state, MultiFab& dudt, const Geometry& geom,
            const ReactionNetwork& net, const Eos& eos,
            std::array<MultiFab, 3>* fluxes, Reconstruction recon) {
    for (std::size_t f = 0; f < state.size(); ++f) {
        const int fi = static_cast<int>(f);
        molRhsRegions(state, dudt, fi, {&state.box(fi), 1}, geom, net, eos, fluxes,
                      recon);
    }
}

Real estimateDt(const MultiFab& state, const Geometry& geom,
                const ReactionNetwork& net, const Eos& eos, Real cfl) {
    const int nspec = net.nspec();
    // Identity of the min-reduction: +inf when no zone bounds the step
    // (empty state), so callers see "no CFL constraint" rather than a
    // large-but-finite magic number.
    Real dt = std::numeric_limits<Real>::infinity();
    for (std::size_t f = 0; f < state.size(); ++f) {
        const int fi = static_cast<int>(f);
        const Box& vb = state.box(fi);
        FArrayBox qfab(vb, PrimLayout(nspec).ncomp());
        conservedToPrimitive(state.const_array(fi), qfab.array(), vb, net, eos);
        auto q = qfab.const_array();
        for (int d = 0; d < 3; ++d) {
            const Real dx = geom.cellSize(d);
            const Real wmax = ParallelReduceMax(vb, [=](int i, int j, int k) {
                return std::abs(q(i, j, k, PrimLayout::QU + d)) +
                       q(i, j, k, PrimLayout::QC);
            });
            if (wmax > 0.0) dt = std::min(dt, dx / wmax);
        }
    }
    return cfl * dt;
}

void enforceConsistency(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                        Real small_dens) {
    const int nspec = net.nspec();
    checkKernelSpeciesLimit(nspec);
    const ReactionNetwork* netp = &net;
    const Eos* eosp = &eos;
    // One launch over every fab; each tag writes only its own fab.
    ParallelFor(KernelInfo{"enforce_consistency", 120.0, 100.0, 72, 1.0}, state.size(), 1,
                [&](std::size_t f) {
        auto u = state.array(static_cast<int>(f));
        return std::pair{state.box(static_cast<int>(f)), [=](int i, int j, int k) {
            Real rho = u(i, j, k, StateLayout::URHO);
            if (rho < small_dens) {
                rho = small_dens;
                u(i, j, k, StateLayout::URHO) = rho;
            }
            // Renormalize species.
            Real X[32];
            Real xsum = 0.0;
            for (int n = 0; n < nspec; ++n) {
                X[n] = std::clamp(u(i, j, k, StateLayout::UFS + n) / rho, Real(0),
                                  Real(1));
                xsum += X[n];
            }
            if (xsum <= 0.0) {
                X[0] = 1.0;
                xsum = 1.0;
            }
            for (int n = 0; n < nspec; ++n) {
                X[n] /= xsum;
                u(i, j, k, StateLayout::UFS + n) = rho * X[n];
            }
            // Temperature from the EOS.
            const Real rinv = 1.0 / rho;
            const Real vx = u(i, j, k, StateLayout::UMX) * rinv;
            const Real vy = u(i, j, k, StateLayout::UMX + 1) * rinv;
            const Real vz = u(i, j, k, StateLayout::UMX + 2) * rinv;
            const Real ke = 0.5 * (vx * vx + vy * vy + vz * vz);
            EosState s;
            s.rho = rho;
            s.e = std::max(u(i, j, k, StateLayout::UEDEN) * rinv - ke, Real(1.0e-30));
            s.abar = netp->abar(X);
            s.ye = netp->ye(X);
            eosp->rhoE(s);
            u(i, j, k, StateLayout::UTEMP) = s.T;
        }};
    });
}

} // namespace exa::castro
