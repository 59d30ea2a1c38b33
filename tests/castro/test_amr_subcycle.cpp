#include "castro/castro.hpp"
#include "castro/hydro.hpp"
#include "castro/sedov.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

struct AmrBlast {
    std::unique_ptr<Castro> amr;
    ReactionNetwork net = makeIgnitionSimple();
};

// The Sedov-like blast of test_castro_amr, optionally on a fully periodic
// domain (closed books: conservation must hold to round-off) and with an
// options hook for guard/react/rebalance configuration.
AmrBlast makeBlast(int max_level, bool periodic, int ncell = 16,
                   const std::function<void(CastroOptions&)>& tweak = {}) {
    AmrBlast b;
    Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1},
                  periodic ? IntVect{1, 1, 1} : IntVect{0, 0, 0});
    AmrInfo info;
    info.max_level = max_level;
    info.ref_ratio = 2;
    info.max_grid_size = 16;
    info.blocking_factor = 4;
    info.n_error_buf = 1;
    info.nranks = 2;

    CastroOptions opt;
    opt.bc = periodic ? DomainBC::allPeriodic() : DomainBC::allOutflow();
    opt.cfl = 0.3;
    if (tweak) tweak(opt);

    const Real r_init = 2.0 / ncell;
    const Real e_in = 1.0 / ((4.0 / 3.0) * constants::pi * r_init * r_init * r_init);
    Castro::InitFn init = [=](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = 1.0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r_init ? 0.4 * e_in : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    Castro::TagFn tag = [](int /*lev*/, const Geometry&, const MultiFab& s,
                           MultiFab& tags) {
        const Real thresh = 1.0e-8;
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (u(i, j, k, StateLayout::UTEMP) > thresh) t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    b.amr = std::make_unique<Castro>(geom, info, b.net, eos, opt,
                                     std::move(init), std::move(tag));
    b.amr->init();
    return b;
}

// A smooth density wave advected by a uniform diagonal velocity across a
// fixed refined patch (coarse zones [4..11]^3): every coarse/fine face
// carries nonzero mass flux, so any register accounting error shows up as
// a conservation drift. Periodic domain; freeze regrids.
AmrBlast makeFlow(int ncell = 16) {
    AmrBlast b;
    Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    AmrInfo info;
    info.max_level = 1;
    info.ref_ratio = 2;
    info.max_grid_size = 16;
    info.blocking_factor = 4;
    info.n_error_buf = 0;
    info.nranks = 2;

    CastroOptions opt;
    opt.bc = DomainBC::allPeriodic();
    opt.cfl = 0.3;

    Castro::InitFn init = [](Real x, Real y, Real /*z*/) {
        Castro::InitialZone zn;
        zn.rho = 1.0 + 0.2 * std::sin(2.0 * constants::pi * x) +
                 0.1 * std::cos(2.0 * constants::pi * y);
        zn.p = 1.0;
        zn.vel = {0.5, 0.3, 0.2};
        zn.X = {1.0, 0.0};
        return zn;
    };
    // The refined patch covers the middle half of the domain in each
    // direction ([4..11] at ncell = 16), so the coarse/fine interface
    // sits at the same physical location at every resolution.
    const int tlo = ncell / 4, thi = 3 * ncell / 4 - 1;
    Castro::TagFn tag = [=](int /*lev*/, const Geometry&, const MultiFab&,
                            MultiFab& tags) {
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (i >= tlo && i <= thi && j >= tlo && j <= thi && k >= tlo &&
                    k <= thi)
                    t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    b.amr = std::make_unique<Castro>(geom, info, b.net, eos, opt,
                                     std::move(init), std::move(tag));
    b.amr->regrid_interval = 0;
    b.amr->init();
    return b;
}

// L-infinity distance between the valid zones of two same-layout states.
Real maxAbsDiff(const MultiFab& a, const MultiFab& b) {
    EXPECT_EQ(a.size(), b.size());
    Real m = 0.0;
    for (std::size_t f = 0; f < a.size(); ++f) {
        const int fi = static_cast<int>(f);
        auto x = a.const_array(fi);
        auto y = b.const_array(fi);
        const Box& vb = a.box(fi);
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        m = std::max(m, std::abs(x(i, j, k, n) - y(i, j, k, n)));
    }
    return m;
}

} // namespace

// --- The refluxing foundation: molRhs's fluxes out-param ----------------

TEST(MolRhsFluxes, DivergenceMatchesUpdateOnEveryBackend) {
    // The returned face fluxes must BE the update: dU/dt == -div F zone
    // by zone, the total over a periodic domain must telescope to zero
    // for the conserved components, and a region-split sweep must
    // reproduce the fused sweep bit-for-bit — on all four backends, for
    // PLM and PPM, on data that varies along all three dimensions (so a
    // wrong j or k stride in the face kernel cannot pass).
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const int n = 16;
    Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(8);
    DistributionMapping dm(ba, 2);
    const StateLayout S(net.nspec());
    const int nc = S.ncomp();

    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        for (const Backend be :
             {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
            SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)) + " recon " +
                         std::to_string(static_cast<int>(recon)));
            ScopedBackend sb(be);
            const int width = stencilWidth(recon);

            MultiFab state(ba, dm, nc, width);
            state.setVal(0.0);
            for (std::size_t f = 0; f < state.size(); ++f) {
                auto u = state.array(static_cast<int>(f));
                const Box& vb = state.box(static_cast<int>(f));
                for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                    for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                        for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                            const Real x = (i + 0.5) / n, y = (j + 0.5) / n,
                                       z = (k + 0.5) / n;
                            const Real rho = 1.0 + 0.3 * std::sin(2 * constants::pi * x) +
                                             0.1 * std::cos(2 * constants::pi * z);
                            const std::array<Real, 3> v{
                                0.2 + 0.1 * std::cos(2 * constants::pi * z),
                                -0.1 * std::sin(2 * constants::pi * x),
                                0.15 * std::cos(2 * constants::pi * y)};
                            const Real x0 = 0.6 + 0.3 * std::sin(2 * constants::pi * z);
                            const std::array<Real, 2> X{x0, 1.0 - x0};
                            EosState es;
                            es.rho = rho;
                            es.p = 1.0 + 0.1 * std::cos(2 * constants::pi * y) +
                                   0.05 * std::sin(2 * constants::pi * z);
                            es.abar = net.abar(X.data());
                            es.ye = net.ye(X.data());
                            eos.rhoP(es);
                            u(i, j, k, StateLayout::URHO) = rho;
                            u(i, j, k, StateLayout::UMX) = rho * v[0];
                            u(i, j, k, StateLayout::UMY) = rho * v[1];
                            u(i, j, k, StateLayout::UMZ) = rho * v[2];
                            u(i, j, k, StateLayout::UEDEN) =
                                rho * es.e +
                                0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
                            u(i, j, k, StateLayout::UTEMP) = es.T;
                            u(i, j, k, StateLayout::UFS) = rho * X[0];
                            u(i, j, k, StateLayout::UFS + 1) = rho * X[1];
                        }
            }
            state.FillBoundary(0, nc, geom.periodicity());

            MultiFab dudt(ba, dm, nc, 0);
            auto fluxes = makeFluxFabs(ba, dm, nc);
            molRhs(state, dudt, geom, net, eos, &fluxes, recon);

            // Zone-wise: the out-param fluxes reproduce the update.
            const Real dxi = 1.0 / geom.cellSize(0);
            const Real dyi = 1.0 / geom.cellSize(1);
            const Real dzi = 1.0 / geom.cellSize(2);
            Real defect = 0.0, scale = 0.0;
            for (std::size_t f = 0; f < dudt.size(); ++f) {
                const int fi = static_cast<int>(f);
                auto du = dudt.const_array(fi);
                auto fx = fluxes[0].const_array(fi);
                auto fy = fluxes[1].const_array(fi);
                auto fz = fluxes[2].const_array(fi);
                const Box& vb = dudt.box(fi);
                for (int c = 0; c < nc; ++c)
                    for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                        for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                            for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                                const Real div =
                                    -(fx(i + 1, j, k, c) - fx(i, j, k, c)) * dxi -
                                    (fy(i, j + 1, k, c) - fy(i, j, k, c)) * dyi -
                                    (fz(i, j, k + 1, c) - fz(i, j, k, c)) * dzi;
                                defect = std::max(defect,
                                                  std::abs(du(i, j, k, c) - div));
                                scale = std::max(scale, std::abs(du(i, j, k, c)));
                            }
            }
            EXPECT_LE(defect, 1e-12 * std::max(scale, Real(1.0)));

            // Domain total: conserved components telescope to zero over the
            // periodic domain.
            const Real vol = geom.cellVolume();
            for (const int c : {StateLayout::URHO, StateLayout::UMX,
                                StateLayout::UEDEN, StateLayout::UFS}) {
                Real total = 0.0, mag = 0.0;
                for (std::size_t f = 0; f < dudt.size(); ++f) {
                    const int fi = static_cast<int>(f);
                    total += dudt.fab(fi).sum(dudt.box(fi), c) * vol;
                    mag += std::abs(dudt.fab(fi).sum(dudt.box(fi), c)) * vol;
                }
                EXPECT_LE(std::abs(total), 1e-11 * std::max(mag, Real(1.0)))
                    << "comp " << c;
            }

            // Region-split sweep (the async-halo interior/boundary pattern:
            // the interior, then the whole shell list in one call) is
            // bit-identical, fluxes included.
            MultiFab dudt2(ba, dm, nc, 0);
            auto fluxes2 = makeFluxFabs(ba, dm, nc);
            for (std::size_t f = 0; f < state.size(); ++f) {
                const int fi = static_cast<int>(f);
                const Box& vb = state.box(fi);
                const Box inner = grow(vb, -width);
                ASSERT_TRUE(inner.ok());
                const std::vector<Box> shell = boxDiff(vb, inner);
                molRhsRegions(state, dudt2, fi, {&inner, 1}, geom, net, eos, &fluxes2,
                              recon);
                molRhsRegions(state, dudt2, fi, shell, geom, net, eos, &fluxes2, recon);
            }
            EXPECT_EQ(maxAbsDiff(dudt, dudt2), 0.0);
            for (int d = 0; d < 3; ++d) {
                EXPECT_EQ(maxAbsDiff(fluxes[d], fluxes2[d]), 0.0) << "dim " << d;
            }
        }
    }
}

TEST(CastroGhosts, StateGhostsEqualStencilWidth) {
    // Castro and every level of the hierarchy carry exactly the ghost zones the
    // reconstruction stencil reads — also after a regrid remakes a level.
    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        SCOPED_TRACE(static_cast<int>(recon));
        const int width = stencilWidth(recon);
        auto b = makeBlast(1, /*periodic=*/false, 16,
                           [&](CastroOptions& o) { o.reconstruction = recon; });
        ASSERT_EQ(b.amr->finestLevel(), 1);
        b.amr->regrid_interval = 1;
        for (int s = 0; s < 2; ++s) b.amr->step(b.amr->estimateDt());
        for (int lev = 0; lev <= b.amr->finestLevel(); ++lev) {
            EXPECT_EQ(b.amr->state(lev).nGrow(), width) << "level " << lev;
        }

        Box dom({0, 0, 0}, {7, 7, 7});
        Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
        CastroOptions opt;
        opt.bc = DomainBC::allPeriodic();
        opt.reconstruction = recon;
        Eos eos{GammaLawEos{1.4}};
        Castro c(geom, AmrInfo{}, b.net, eos, opt, [](Real, Real, Real) {
            Castro::InitialZone z;
            z.X = {1.0, 0.0};
            return z;
        });
        c.init();
        EXPECT_EQ(c.state().nGrow(), width);
    }
}

// --- Subcycled stepping: conservation and consistency -------------------

TEST(AmrSubcycle, TwoLevelPeriodicRunConservesToRoundoff) {
    auto b = makeBlast(1, /*periodic=*/true);
    ASSERT_EQ(b.amr->finestLevel(), 1);
    const Real m0 = b.amr->totalMass();
    const Real e0 = b.amr->totalEnergy();
    for (int s = 0; s < 4; ++s) {
        b.amr->step(b.amr->estimateDt());
        EXPECT_TRUE(b.amr->syncPointSumsAgree()) << "step " << s;
    }
    EXPECT_NEAR(b.amr->totalMass() / m0, 1.0, 1e-12);
    EXPECT_NEAR(b.amr->totalEnergy() / e0, 1.0, 1e-12);
}

TEST(AmrSubcycle, ThreeLevelPeriodicRunConservesToRoundoff) {
    auto b = makeBlast(2, /*periodic=*/true);
    ASSERT_EQ(b.amr->finestLevel(), 2);
    const Real m0 = b.amr->totalMass();
    const Real e0 = b.amr->totalEnergy();
    for (int s = 0; s < 2; ++s) {
        b.amr->step(b.amr->estimateDt());
        EXPECT_TRUE(b.amr->syncPointSumsAgree()) << "step " << s;
    }
    EXPECT_NEAR(b.amr->totalMass() / m0, 1.0, 1e-12);
    EXPECT_NEAR(b.amr->totalEnergy() / e0, 1.0, 1e-12);
}

TEST(AmrSubcycle, NonSubcycledModeConservesThroughTheSameRegisters) {
    auto b = makeBlast(1, /*periodic=*/true);
    b.amr->subcycle = false;
    const Real m0 = b.amr->totalMass();
    for (int s = 0; s < 2; ++s) b.amr->step(b.amr->estimateDt());
    EXPECT_NEAR(b.amr->totalMass() / m0, 1.0, 1e-12);
    // One advance per level per step: no subcycling happened.
    EXPECT_EQ(b.amr->advanceCount(0), 2);
    EXPECT_EQ(b.amr->advanceCount(1), 2);
}

TEST(AmrSubcycle, RefluxOffLeaksWhatRefluxRepays) {
    // Same flow with registers disabled: the coarse/fine interface —
    // active on every face in this advected-wave setup — leaks at
    // truncation level, orders of magnitude above the refluxed drift.
    auto on = makeFlow();
    auto off = makeFlow();
    off.amr->reflux = false;
    ASSERT_EQ(on.amr->finestLevel(), 1);
    const Real m_on = on.amr->totalMass();
    const Real m_off = off.amr->totalMass();
    for (int s = 0; s < 3; ++s) {
        on.amr->step(on.amr->estimateDt());
        off.amr->step(off.amr->estimateDt());
    }
    const Real drift_on = std::abs(on.amr->totalMass() / m_on - 1.0);
    const Real drift_off = std::abs(off.amr->totalMass() / m_off - 1.0);
    EXPECT_LE(drift_on, 1e-12);
    EXPECT_GT(drift_off, 100.0 * std::max(drift_on, Real(1e-15)));
}

TEST(AmrSubcycle, SubcycledMatchesNonSubcycledToTruncationOrder) {
    // Both couplings solve the same PDE: after a handful of coarse steps
    // the states differ only at the coarse/fine coupling's truncation
    // level, not at O(1).
    auto a = makeBlast(1, /*periodic=*/true);
    auto c = makeBlast(1, /*periodic=*/true);
    c.amr->subcycle = false;
    const Real dt = c.amr->estimateDt(); // finest-limited: stable for both
    for (int s = 0; s < 6; ++s) {
        a.amr->step(dt);
        c.amr->step(dt);
    }
    const Real scale = a.amr->state(0).max(StateLayout::URHO);
    Real diff = 0.0;
    for (std::size_t f = 0; f < a.amr->state(0).size(); ++f) {
        const int fi = static_cast<int>(f);
        auto x = a.amr->state(0).const_array(fi);
        auto y = c.amr->state(0).const_array(fi);
        const Box& vb = a.amr->state(0).box(fi);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                    diff = std::max(diff,
                                    std::abs(x(i, j, k, StateLayout::URHO) -
                                             y(i, j, k, StateLayout::URHO)));
    }
    EXPECT_GT(diff, 0.0);          // genuinely different couplings
    EXPECT_LT(diff, 0.05 * scale); // but the same answer to truncation
}

TEST(AmrSubcycle, SubcycledCouplingConvergesUnderRefinement) {
    // Richardson 2-point dx sweep on the smooth advected wave: the
    // subcycled-vs-non-subcycled discrepancy at a fixed final time is a
    // pure coupling truncation term and must shrink at the scheme's
    // order as dx (and dt with it) is halved. Measured in L1 — the PLM
    // limiter clips smooth extrema pointwise, so L-infinity stalls at
    // first order on isolated zones while the field-wide coupling error
    // converges at the limiter-constrained rate. Pins the order of the
    // subcycled time stepping: measured p = log2(e_16 / e_32) ~ 1.55
    // (between the formal SSP-RK2 order and the limiter's first-order
    // floor); anything near 1.0 means the coarse/fine coupling degraded
    // to plain first order. (The 8/16 pair is still pre-asymptotic in
    // both norms; 16/32 is the first pair in the convergent regime.)
    const Real t_final = 0.032;
    auto errAt = [&](int ncell) {
        auto a = makeFlow(ncell);
        auto c = makeFlow(ncell);
        c.amr->subcycle = false;
        const Real dt = t_final / (ncell / 2); // dt ~ dx, well below CFL
        for (int s = 0; s < ncell / 2; ++s) {
            a.amr->step(dt);
            c.amr->step(dt);
        }
        // L1 of the level-0 density difference.
        Real sum = 0.0;
        std::int64_t nz = 0;
        const MultiFab& x = a.amr->state(0);
        const MultiFab& y = c.amr->state(0);
        for (std::size_t f = 0; f < x.size(); ++f) {
            const int fi = static_cast<int>(f);
            auto xa = x.const_array(fi);
            auto ya = y.const_array(fi);
            const Box& vb = x.box(fi);
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        sum += std::abs(xa(i, j, k, StateLayout::URHO) -
                                        ya(i, j, k, StateLayout::URHO));
                        ++nz;
                    }
        }
        return sum / static_cast<Real>(nz);
    };
    const Real e16 = errAt(16);
    const Real e32 = errAt(32);
    ASSERT_GT(e16, 0.0);
    ASSERT_GT(e32, 0.0);
    const Real order = std::log2(e16 / e32);
    std::printf("  [subcycle sweep] L1 e16=%.3g e32=%.3g order %.2f\n",
                double(e16), double(e32), double(order));
    EXPECT_GE(order, 1.3) << "e16=" << e16 << " e32=" << e32;
    EXPECT_LE(order, 3.5) << "e16=" << e16 << " e32=" << e32;
}

TEST(AmrSubcycle, SubcycleCountsFollowTheRefinementRatio) {
    auto b = makeBlast(2, /*periodic=*/false);
    ASSERT_EQ(b.amr->finestLevel(), 2);
    EXPECT_TRUE(b.amr->fluxRegister(1).isDefined());
    EXPECT_TRUE(b.amr->fluxRegister(2).isDefined());
    b.amr->step(b.amr->estimateDt());
    EXPECT_EQ(b.amr->advanceCount(0), 1);
    EXPECT_EQ(b.amr->advanceCount(1), 2);
    EXPECT_EQ(b.amr->advanceCount(2), 4);
}

// --- Satellite regressions ----------------------------------------------

TEST(AmrSubcycle, CoarseStateUnderFineGridsIsEosConsistentAfterBurnStep) {
    // Regression: the post-burn averageDown used to skip the consistency
    // sweep, leaving covered coarse temperatures off the EOS (averaging
    // T linearly is not the EOS of the averaged conserved state). After a
    // reacting step, re-enforcing consistency must be a no-op.
    auto b = makeBlast(1, /*periodic=*/false, 16, [](CastroOptions& o) {
        o.do_react = true;
    });
    b.amr->step(b.amr->estimateDt());

    const MultiFab& s0 = b.amr->state(0);
    MultiFab check(s0.boxArray(), s0.distributionMap(), s0.nComp(), s0.nGrow());
    MultiFab::Copy(check, s0, 0, 0, s0.nComp(), 0);
    enforceConsistency(check, b.net, Eos{GammaLawEos{1.4}});
    const Real scale = s0.max(StateLayout::UTEMP);
    EXPECT_LE(maxAbsDiff(check, s0), 1e-12 * std::max(scale, Real(1.0)));
}

TEST(AmrSubcycle, EveryLevelRecordsHydroReactAndGravityRegions) {
    // The per-level advance runs inside the castro::hydro, castro::react
    // and castro::gravity timer regions the perf tooling reads.
    auto b = makeBlast(1, /*periodic=*/false, 16, [](CastroOptions& o) {
        o.do_react = true;
        o.gravity = GravityType::Poisson;
    });
    ASSERT_EQ(b.amr->finestLevel(), 1);
    TimerRegistry timers;
    {
        ScopedTimerRegistry scope(&timers);
        b.amr->step(b.amr->estimateDt());
    }
    EXPECT_GT(timers.seconds("castro::hydro"), 0.0);
    EXPECT_GT(timers.seconds("castro::react"), 0.0);
    EXPECT_GT(timers.seconds("castro::gravity"), 0.0);
}

TEST(AmrSubcycle, MaskedSumsSeeFineLevelOnlyChanges) {
    // Regression: totalMass/totalEnergy used to read level 0 only, which
    // is blind to fine-level state the coarse level has not yet averaged
    // in (mid-substep, or after a fine-only repair).
    auto b = makeBlast(1, /*periodic=*/true);
    const Real m0 = b.amr->totalMass();
    EXPECT_TRUE(b.amr->syncPointSumsAgree());
    const Real lev0_before =
        b.amr->state(0).sum(StateLayout::URHO) * b.amr->geom(0).cellVolume();

    // Perturb one covered fine zone: the hierarchy sum must move by the
    // fine-zone mass, the level-0 shortcut must not move at all.
    MultiFab& s1 = b.amr->state(1);
    const Box& vb = s1.box(0);
    const IntVect z = vb.smallEnd();
    const Real delta = 0.125;
    s1.array(0)(z.x, z.y, z.z, StateLayout::URHO) += delta;

    const Real fine_vol = b.amr->geom(1).cellVolume();
    EXPECT_NEAR(b.amr->totalMass() - m0, delta * fine_vol,
                1e-12 * std::max(m0, Real(1.0)));
    const Real lev0_after =
        b.amr->state(0).sum(StateLayout::URHO) * b.amr->geom(0).cellVolume();
    EXPECT_EQ(lev0_before, lev0_after);
    EXPECT_FALSE(b.amr->syncPointSumsAgree());
}

TEST(AmrSubcycle, GuardRetryOfMidSubcycleFaultReplaysCleanSubstepRun) {
    // A NaN injected into the second fine substep invalidates the guarded
    // step; the rollback must rewind the partially-subcycled hierarchy —
    // states AND per-level times — so the dt/2-substep retry reproduces,
    // bit for bit, a clean run that took two dt/2 steps from the same
    // initial condition.
    auto a = makeBlast(1, /*periodic=*/true, 16, [](CastroOptions& o) {
        o.guard.enabled = true;
        o.guard.verbose = false;
    });
    auto c = makeBlast(1, /*periodic=*/true);
    a.amr->regrid_interval = 0;
    c.amr->regrid_interval = 0;
    ASSERT_EQ(a.amr->finestLevel(), 1);

    const Real dt = c.amr->estimateDt();
    const auto nfabs0 = static_cast<std::int64_t>(a.amr->state(0).size());
    const auto nfabs1 = static_cast<std::int64_t>(a.amr->state(1).size());
    {
        // Hit order per attempt: level-0 advance (2 RK sweeps), fine
        // substep 1 (2 sweeps), fine substep 2 — fire on its first fab.
        fault::Spec spec;
        spec.start = 2 * nfabs0 + 2 * nfabs1;
        spec.count = 1;
        fault::ScopedFault f(fault::Site::HydroNanFlux, spec);
        a.amr->step(dt);
    }
    EXPECT_EQ(a.amr->retryStats().retries, 1);

    c.amr->step(0.5 * dt);
    c.amr->step(0.5 * dt);

    for (int lev = 0; lev <= 1; ++lev) {
        EXPECT_EQ(maxAbsDiff(a.amr->state(lev), c.amr->state(lev)), 0.0)
            << "level " << lev;
    }
    EXPECT_DOUBLE_EQ(a.amr->time(), c.amr->time());
}
