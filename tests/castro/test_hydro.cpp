#include "../support/check_every_launch.hpp"
#include "castro/hydro.hpp"
#include "castro/castro.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/flux_register.hpp"
#include "perf/device_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

// A gamma-law Castro on a periodic unit cube.
std::unique_ptr<Castro> makePeriodic(const ReactionNetwork& net, int n, Real gamma,
                                     const Castro::InitFn& init) {
    Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    AmrInfo info;
    info.max_grid_size = std::max(8, n / 2);
    info.nranks = 2;
    CastroOptions opt;
    opt.bc = DomainBC::allPeriodic();
    Eos eos{GammaLawEos{gamma}};
    auto c = std::make_unique<Castro>(geom, info, net, eos, opt, init);
    c->init();
    return c;
}

// Naive Array4 references for the face kernels: every neighbour indexed
// through IntVect::basis, the form the stride kernels replaced.
Real naiveMcSlope(Array4<const Real> q, int i, int j, int k, int n, int dim) {
    const IntVect e = IntVect::basis(dim);
    const Real qm = q(i - e.x, j - e.y, k - e.z, n);
    const Real q0 = q(i, j, k, n);
    const Real qp = q(i + e.x, j + e.y, k + e.z, n);
    const Real dl = q0 - qm;
    const Real dr = qp - q0;
    if (dl * dr <= 0.0) return 0.0;
    const Real dc = 0.5 * (dl + dr);
    const Real lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    return std::copysign(std::min(std::abs(dc), lim), dc);
}

void naivePpmEdges(Array4<const Real> q, int i, int j, int k, int n, int dim,
                   Real& qm, Real& qp) {
    const IntVect e = IntVect::basis(dim);
    auto at = [&](int s) { return q(i + s * e.x, j + s * e.y, k + s * e.z, n); };
    const Real q0 = at(0);
    qm = (7.0 / 12.0) * (at(-1) + q0) - (1.0 / 12.0) * (at(-2) + at(1));
    qp = (7.0 / 12.0) * (q0 + at(1)) - (1.0 / 12.0) * (at(-1) + at(2));
    if ((qp - q0) * (q0 - qm) <= 0.0) {
        qm = q0;
        qp = q0;
        return;
    }
    const Real d = qp - qm;
    const Real t = 6.0 * (q0 - 0.5 * (qp + qm));
    if (d * t > d * d) qm = 3.0 * q0 - 2.0 * qp;
    if (-(d * d) > d * t) qp = 3.0 * q0 - 2.0 * qm;
}

// Random 3-component data on a box with unequal extents, so the i, j, k
// and component strides all differ. Smooth ramps plus noise give both
// monotone and extremal stencils.
std::vector<Real> randomField(const Box& b, int ncomp, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<Real> noise(-1.0, 1.0);
    std::vector<Real> data(static_cast<std::size_t>(b.numPts()) * ncomp);
    Array4<Real> a(data.data(), b, ncomp);
    for (int n = 0; n < ncomp; ++n)
        for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
            for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i)
                    a(i, j, k, n) = 0.3 * i - 0.2 * j + 0.1 * k * n + noise(rng);
    return data;
}

// A smooth gamma-law state varying along all three dimensions in every
// valid zone of `state`, ghosts filled periodically.
void fillSmoothState(MultiFab& state, const Geometry& geom, const ReactionNetwork& net,
                     const Eos& eos) {
    const Real tau = 2 * constants::pi;
    const Box& dom = geom.domain();
    state.setVal(0.0);
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real x = (i + 0.5) / dom.length(0);
                    const Real y = (j + 0.5) / dom.length(1);
                    const Real z = (k + 0.5) / dom.length(2);
                    const Real rho = 1.0 + 0.3 * std::sin(tau * x) + 0.1 * std::cos(tau * z);
                    const std::array<Real, 3> v{0.2 + 0.1 * std::cos(tau * z),
                                                -0.1 * std::sin(tau * x),
                                                0.15 * std::cos(tau * y)};
                    const Real x0 = 0.6 + 0.3 * std::sin(tau * z);
                    const std::array<Real, 2> X{x0, 1.0 - x0};
                    EosState es;
                    es.rho = rho;
                    es.p = 1.0 + 0.1 * std::cos(tau * y) + 0.05 * std::sin(tau * z);
                    es.abar = net.abar(X.data());
                    es.ye = net.ye(X.data());
                    eos.rhoP(es);
                    u(i, j, k, StateLayout::URHO) = rho;
                    for (int d = 0; d < 3; ++d) u(i, j, k, StateLayout::UMX + d) = rho * v[d];
                    u(i, j, k, StateLayout::UEDEN) =
                        rho * es.e + 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
                    u(i, j, k, StateLayout::UTEMP) = es.T;
                    u(i, j, k, StateLayout::UFS) = rho * X[0];
                    u(i, j, k, StateLayout::UFS + 1) = rho * X[1];
                }
    }
    state.FillBoundary(0, state.nComp(), geom.periodicity());
}

// Every valid zone of every component, in fab order.
std::vector<Real> validState(const MultiFab& mf) {
    std::vector<Real> out;
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.const_array(static_cast<int>(f));
        const Box& vb = mf.box(static_cast<int>(f));
        for (int n = 0; n < mf.nComp(); ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        out.push_back(a(i, j, k, n));
    }
    return out;
}

} // namespace

TEST(HllcFlux, ExactForUniformFlow) {
    // A uniform state moving at u: flux must be the exact advective flux.
    const int nspec = 2;
    PrimLayout Q(nspec);
    std::vector<Real> q(Q.ncomp());
    q[PrimLayout::QRHO] = 2.0;
    q[PrimLayout::QU] = 0.7;
    q[PrimLayout::QV] = -0.2;
    q[PrimLayout::QW] = 0.1;
    q[PrimLayout::QP] = 1.5;
    q[PrimLayout::QREINT] = 1.5 / 0.4; // gamma = 1.4
    q[PrimLayout::QC] = std::sqrt(1.4 * 1.5 / 2.0);
    q[PrimLayout::QFS] = 0.25;
    q[PrimLayout::QFS + 1] = 0.75;

    StateLayout S(nspec);
    std::vector<Real> flux(S.ncomp());
    hllcFlux(q.data(), q.data(), nspec, 0, flux.data());

    const Real rho = 2.0, u = 0.7, v = -0.2, w = 0.1, p = 1.5;
    const Real E = 1.5 / 0.4 + 0.5 * rho * (u * u + v * v + w * w);
    EXPECT_NEAR(flux[StateLayout::URHO], rho * u, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMX], rho * u * u + p, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMY], rho * u * v, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UMZ], rho * u * w, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UEDEN], u * (E + p), 1e-12);
    EXPECT_NEAR(flux[StateLayout::UFS], rho * u * 0.25, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UFS + 1], rho * u * 0.75, 1e-12);
}

TEST(HllcFlux, SymmetricStatesGiveZeroMassFlux) {
    // Mirror states (equal rho/p, opposite velocity): the interface is a
    // stagnation point; mass flux vanishes by symmetry.
    const int nspec = 1;
    PrimLayout Q(nspec);
    std::vector<Real> ql(Q.ncomp()), qr(Q.ncomp());
    for (auto* q : {&ql, &qr}) {
        (*q)[PrimLayout::QRHO] = 1.0;
        (*q)[PrimLayout::QP] = 1.0;
        (*q)[PrimLayout::QREINT] = 2.5;
        (*q)[PrimLayout::QC] = std::sqrt(1.4);
        (*q)[PrimLayout::QFS] = 1.0;
        (*q)[PrimLayout::QV] = 0.0;
        (*q)[PrimLayout::QW] = 0.0;
    }
    ql[PrimLayout::QU] = 0.3;
    qr[PrimLayout::QU] = -0.3;
    StateLayout S(nspec);
    std::vector<Real> flux(S.ncomp());
    hllcFlux(ql.data(), qr.data(), nspec, 0, flux.data());
    EXPECT_NEAR(flux[StateLayout::URHO], 0.0, 1e-12);
    EXPECT_NEAR(flux[StateLayout::UEDEN], 0.0, 1e-12);
    EXPECT_GT(flux[StateLayout::UMX], 1.0); // compression: p* > p
}

TEST(McSlope, LimitsAtExtrema) {
    Box b({0, 0, 0}, {4, 0, 0});
    std::vector<Real> data = {1.0, 2.0, 5.0, 2.0, 1.0};
    Array4<const Real> q(data.data(), b, 1);
    EXPECT_DOUBLE_EQ(mcSlope(q, 2, 0, 0, 0, 0), 0.0); // local max
    EXPECT_GT(mcSlope(q, 1, 0, 0, 0, 0), 0.0);        // monotone rise
}

TEST(McSlope, MatchesNaiveReferenceInEveryDimension) {
    const Box b({-2, 1, 3}, {5, 7, 8});
    const int ncomp = 3;
    const auto data = randomField(b, ncomp, 17u);
    Array4<const Real> q(data.data(), b, ncomp);
    const Box inner = grow(b, -1);
    int nonzero = 0;
    for (int d = 0; d < 3; ++d)
        for (int n = 0; n < ncomp; ++n)
            for (int k = inner.smallEnd(2); k <= inner.bigEnd(2); ++k)
                for (int j = inner.smallEnd(1); j <= inner.bigEnd(1); ++j)
                    for (int i = inner.smallEnd(0); i <= inner.bigEnd(0); ++i) {
                        const Real got = mcSlope(q, i, j, k, n, d);
                        EXPECT_EQ(got, naiveMcSlope(q, i, j, k, n, d))
                            << "d=" << d << " n=" << n << " at " << i << "," << j
                            << "," << k;
                        nonzero += got != 0.0;
                    }
    EXPECT_GT(nonzero, 0); // the limiter is not trivially clipping
}

TEST(CastroHydro, UniformStateIsSteady) {
    auto net = makeIgnitionSimple();
    auto c = makePeriodic(net, 8, 1.4, [&](Real, Real, Real) {
        Castro::InitialZone z;
        z.rho = 1.0;
        z.T = 300.0;
        z.X = {1.0, 0.0};
        z.vel = {0.1, -0.2, 0.05};
        return z;
    });
    const Real m0 = c->totalMass();
    const Real e0 = c->totalEnergy();
    for (int s = 0; s < 5; ++s) c->step(c->estimateDt());
    // A uniform moving state must stay exactly uniform (to round-off).
    EXPECT_NEAR(c->totalMass(), m0, 1e-12 * m0);
    EXPECT_NEAR(c->totalEnergy(), e0, 1e-10 * std::abs(e0));
    EXPECT_NEAR(c->state().min(StateLayout::URHO), 1.0, 1e-10);
    EXPECT_NEAR(c->state().max(StateLayout::URHO), 1.0, 1e-10);
}

TEST(CastroHydro, ConservesOnPeriodicDomain) {
    // A smooth density/velocity perturbation: mass, momentum, and energy
    // are conserved to round-off on a periodic domain.
    auto net = makeIgnitionSimple();
    auto c = makePeriodic(net, 16, 1.4, [&](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = 1.0 + 0.2 * std::sin(2 * constants::pi * x) *
                           std::cos(2 * constants::pi * y);
        zn.T = 300.0 * (1.0 + 0.1 * std::sin(2 * constants::pi * z));
        zn.vel = {0.3 * std::sin(2 * constants::pi * y), 0.0,
                  -0.2 * std::cos(2 * constants::pi * x)};
        zn.X = {0.7, 0.3};
        return zn;
    });
    const Real m0 = c->totalMass();
    const auto p0 = c->totalMomentum();
    const Real e0 = c->totalEnergy();
    for (int s = 0; s < 10; ++s) c->step(c->estimateDt());
    EXPECT_NEAR(c->totalMass() / m0, 1.0, 1e-12);
    const auto p1 = c->totalMomentum();
    const Real pscale = std::abs(p0[0]) + std::abs(p0[2]) + m0;
    EXPECT_NEAR((p1[0] - p0[0]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR((p1[1] - p0[1]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR((p1[2] - p0[2]) / pscale, 0.0, 1e-11);
    EXPECT_NEAR(c->totalEnergy() / e0, 1.0, 1e-11);
}

TEST(CastroHydro, SodShockTubeStructure) {
    // Classic Sod problem along x: after a short time the solution has a
    // rightward shock, contact, and leftward rarefaction. Check invariant
    // ordering and plateau values loosely (PLM + HLLC at modest N).
    auto net = makeIgnitionSimple();
    Box dom({0, 0, 0}, {63, 3, 3});
    Geometry geom(dom, {0, 0, 0}, {1.0, 0.0625, 0.0625});
    AmrInfo info;
    info.max_grid_size = 32;
    info.nranks = 2;
    CastroOptions opt;
    opt.bc = DomainBC::allOutflow();
    opt.cfl = 0.4;
    Eos eos{GammaLawEos{1.4}};
    Castro c(geom, info, net, eos, opt, [&](Real x, Real, Real) {
        Castro::InitialZone z;
        z.rho = x < 0.5 ? 1.0 : 0.125;
        z.p = x < 0.5 ? 1.0 : 0.1;
        z.X = {1.0, 0.0};
        return z;
    });
    c.init();
    while (c.time() < 0.15) c.step(std::min(c.estimateDt(), 0.15 - c.time()));

    auto u = c.state().const_array(0);
    (void)u;
    // Sample the density along the centerline.
    std::vector<Real> rho_line(64);
    for (std::size_t b = 0; b < c.state().size(); ++b) {
        auto a = c.state().const_array(static_cast<int>(b));
        const Box& vb = c.state().box(static_cast<int>(b));
        if (vb.smallEnd(1) > 1 || vb.bigEnd(1) < 1) continue;
        if (vb.smallEnd(2) > 1 || vb.bigEnd(2) < 1) continue;
        for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
            rho_line[i] = a(i, 1, 1, StateLayout::URHO);
        }
    }
    // Left state undisturbed, right state undisturbed.
    EXPECT_NEAR(rho_line[2], 1.0, 1e-6);
    EXPECT_NEAR(rho_line[61], 0.125, 1e-6);
    // Post-shock plateau (exact: 0.2656) lies between the contact
    // (x ~ 0.64 at t = 0.15) and the shock (x ~ 0.76): sample x ~ 0.71.
    EXPECT_NEAR(rho_line[45], 0.2656, 0.05);
    // Contact plateau (exact: 0.4263).
    bool found_contact = false;
    for (int i = 32; i < 56; ++i) {
        if (std::abs(rho_line[i] - 0.4263) < 0.05) found_contact = true;
    }
    EXPECT_TRUE(found_contact);
}

TEST(CastroHydro, EstimateDtScalesWithResolution) {
    auto net = makeIgnitionSimple();
    auto mk = [&](int n) {
        return makePeriodic(net, n, 1.4, [&](Real, Real, Real) {
            Castro::InitialZone z;
            z.rho = 1.0;
            z.T = 300.0;
            z.X = {1.0, 0.0};
            return z;
        });
    };
    auto c8 = mk(8);
    auto c16 = mk(16);
    EXPECT_NEAR(c8->estimateDt() / c16->estimateDt(), 2.0, 1e-6);
}

namespace {

// Three steps of a 3-D smooth wave on every backend: the final states
// must agree bit-for-bit, zone by zone, with the Serial run.
void expectBackendsIdentical(Reconstruction recon) {
    auto net = makeIgnitionSimple();
    auto run = [&](Backend be) {
        ScopedBackend sb(be);
        Box dom({0, 0, 0}, {7, 7, 7});
        Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
        AmrInfo info;
        info.max_grid_size = 4;
        info.nranks = 2;
        CastroOptions opt;
        opt.bc = DomainBC::allPeriodic();
        opt.reconstruction = recon;
        Eos eos{GammaLawEos{1.4}};
        Castro c(geom, info, net, eos, opt, [&](Real x, Real y, Real z) {
            Castro::InitialZone zone;
            zone.rho = 1.0 + 0.3 * std::sin(2 * constants::pi * x);
            zone.T = 300.0 * (1.0 + 0.2 * std::cos(2 * constants::pi * z));
            zone.vel = {0.1, 0.05 * std::sin(2 * constants::pi * z),
                        -0.08 * std::cos(2 * constants::pi * y)};
            zone.X = {1.0, 0.0};
            return zone;
        });
        c.init();
        for (int s = 0; s < 3; ++s) c.step(c.estimateDt());
        return validState(c.state());
    };
    const auto serial = run(Backend::Serial);
    for (const Backend be : {Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
        EXPECT_EQ(run(be), serial) << "backend " << static_cast<int>(be);
    }
}

} // namespace

TEST(CastroHydro, BackendsProduceIdenticalStates) {
    expectBackendsIdentical(Reconstruction::PLM);
}

TEST(CastroHydro, BackendsProduceIdenticalStatesPpm) {
    expectBackendsIdentical(Reconstruction::PPM);
}

TEST(PpmEdges, ReproducesSmoothParabolaAndLimitsExtrema) {
    Box b({0, 0, 0}, {8, 0, 0});
    std::vector<Real> data(9);
    // Smooth quadratic: edges should be 4th-order accurate (near exact).
    for (int i = 0; i < 9; ++i) data[i] = 2.0 + 0.5 * i + 0.25 * i * i;
    Array4<const Real> q(data.data(), b, 1);
    Real qm, qp;
    ppmEdges(q, 4, 0, 0, 0, 0, qm, qp);
    // Analytic cell-average of the quadratic gives interface values
    // f(3.5) + O(h^4) correction; just require tight agreement.
    EXPECT_NEAR(qm, 2.0 + 0.5 * 3.5 + 0.25 * (3.5 * 3.5 + 1.0 / 12.0), 0.05);
    EXPECT_NEAR(qp, 2.0 + 0.5 * 4.5 + 0.25 * (4.5 * 4.5 + 1.0 / 12.0), 0.05);

    // A local extremum must flatten to first order (monotonization).
    std::vector<Real> peak = {0, 0, 0, 1, 5, 1, 0, 0, 0};
    Array4<const Real> qpk(peak.data(), b, 1);
    ppmEdges(qpk, 4, 0, 0, 0, 0, qm, qp);
    EXPECT_DOUBLE_EQ(qm, 5.0);
    EXPECT_DOUBLE_EQ(qp, 5.0);

    // Monotone data: edges bounded by the neighbors.
    std::vector<Real> mono = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    Array4<const Real> qm2(mono.data(), b, 1);
    ppmEdges(qm2, 4, 0, 0, 0, 0, qm, qp);
    EXPECT_GE(qm, 3.0);
    EXPECT_LE(qp, 5.0);
    EXPECT_LT(qm, qp);
}

TEST(PpmEdges, MatchNaiveReferenceInEveryDimension) {
    const Box b({-3, 0, 2}, {6, 7, 10});
    const int ncomp = 3;
    const auto data = randomField(b, ncomp, 29u);
    Array4<const Real> q(data.data(), b, ncomp);
    const Box inner = grow(b, -2);
    int smooth = 0;
    for (int d = 0; d < 3; ++d)
        for (int n = 0; n < ncomp; ++n)
            for (int k = inner.smallEnd(2); k <= inner.bigEnd(2); ++k)
                for (int j = inner.smallEnd(1); j <= inner.bigEnd(1); ++j)
                    for (int i = inner.smallEnd(0); i <= inner.bigEnd(0); ++i) {
                        Real qm, qp, rm, rp;
                        ppmEdges(q, i, j, k, n, d, qm, qp);
                        naivePpmEdges(q, i, j, k, n, d, rm, rp);
                        EXPECT_EQ(qm, rm) << "d=" << d << " n=" << n << " at " << i
                                          << "," << j << "," << k;
                        EXPECT_EQ(qp, rp) << "d=" << d << " n=" << n << " at " << i
                                          << "," << j << "," << k;
                        smooth += qm != qp;
                    }
    EXPECT_GT(smooth, 0); // not every parabola was flattened
}

TEST(MolRhs, SweepsAlongEachDimensionAreTransposesOfEachOther) {
    // A 1-D profile along x, y or z, moving along its own axis: the
    // three dU/dt fields must be transposes of each other bit-for-bit.
    // This pins the face kernel's stride in each dimension (the fused
    // and region-split sweeps share the kernel, so comparing them with
    // each other cannot catch a wrong j or k stride).
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const int n = 8;
    const Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    const BoxArray ba(dom);
    const DistributionMapping dm(ba, 1);
    const int nc = StateLayout(net.nspec()).ncomp();

    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        SCOPED_TRACE(static_cast<int>(recon));
        auto rhs = [&](int dir) {
            MultiFab state(ba, dm, nc, stencilWidth(recon));
            state.setVal(0.0);
            auto u = state.array(0);
            for (int k = 0; k < n; ++k)
                for (int j = 0; j < n; ++j)
                    for (int i = 0; i < n; ++i) {
                        const Real c = (IntVect{i, j, k}[dir] + 0.5) / n;
                        const Real w = 2 * constants::pi * c;
                        const Real rho = 1.0 + 0.3 * std::sin(w) + 0.1 * std::cos(2 * w);
                        const Real v = 0.2 + 0.1 * std::cos(w);
                        const std::array<Real, 2> X{0.6 + 0.3 * std::sin(w),
                                                    0.4 - 0.3 * std::sin(w)};
                        EosState es;
                        es.rho = rho;
                        es.p = 1.0 + 0.2 * std::cos(w);
                        es.abar = net.abar(X.data());
                        es.ye = net.ye(X.data());
                        eos.rhoP(es);
                        u(i, j, k, StateLayout::URHO) = rho;
                        u(i, j, k, StateLayout::UMX + dir) = rho * v;
                        u(i, j, k, StateLayout::UEDEN) = rho * es.e + 0.5 * rho * v * v;
                        u(i, j, k, StateLayout::UTEMP) = es.T;
                        u(i, j, k, StateLayout::UFS) = rho * X[0];
                        u(i, j, k, StateLayout::UFS + 1) = rho * X[1];
                    }
            state.FillBoundary(0, nc, geom.periodicity());
            MultiFab dudt(ba, dm, nc, 0);
            molRhs(state, dudt, geom, net, eos, nullptr, recon);
            return dudt;
        };
        const MultiFab ref = rhs(0);
        auto r = ref.const_array(0);
        int moving = 0;
        for (int i = 0; i < n; ++i) moving += r(i, 0, 0, StateLayout::URHO) != 0.0;
        EXPECT_GT(moving, 0);
        for (int dir = 1; dir < 3; ++dir) {
            const MultiFab got = rhs(dir);
            auto g = got.const_array(0);
            for (int comp = 0; comp < nc; ++comp) {
                // The momentum along the profile's axis maps to x-momentum.
                int rcomp = comp;
                if (comp == StateLayout::UMX + dir) rcomp = StateLayout::UMX;
                if (comp == StateLayout::UMX) rcomp = StateLayout::UMX + dir;
                for (int k = 0; k < n; ++k)
                    for (int j = 0; j < n; ++j)
                        for (int i = 0; i < n; ++i) {
                            const int along = IntVect{i, j, k}[dir];
                            ASSERT_EQ(g(i, j, k, comp), r(along, 0, 0, rcomp))
                                << "dir " << dir << " comp " << comp << " at " << i
                                << "," << j << "," << k;
                        }
            }
        }
    }
}

TEST(MolRhs, RegionListIsOneLaunchPerKernel) {
    // A 16^3 fab split into its interior and 6 shells, swept in one call:
    // one primitive launch over the grown bounding box, one flux launch
    // holding a tag per (region, direction) and one update launch over
    // the regions, whatever the list's length.
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const Box dom({0, 0, 0}, {15, 15, 15});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    const BoxArray ba(dom);
    const DistributionMapping dm(ba, 1);
    const int nc = StateLayout(net.nspec()).ncomp();

    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        SCOPED_TRACE(static_cast<int>(recon));
        const int width = stencilWidth(recon);
        MultiFab state(ba, dm, nc, width);
        fillSmoothState(state, geom, net, eos);
        MultiFab dudt(ba, dm, nc, 0);

        const auto part = CopierCache::instance().interiorPartition(ba, width);
        const FabRegions& fr = part->fabs[0];
        ASSERT_TRUE(fr.interior.ok());
        ASSERT_EQ(fr.shell.size(), FabRegions::kMaxShell);
        std::vector<Box> regions{fr.interior};
        regions.insert(regions.end(), fr.shell.begin(), fr.shell.end());
        std::int64_t zones = 0, faces = 0;
        for (const Box& r : regions) {
            zones += r.numPts();
            for (int d = 0; d < 3; ++d) faces += surroundingFaces(r, d).numPts();
        }

        DeviceModel dev;
        {
            ScopedBackend sb(Backend::SimGpu);
            dev.attach();
            molRhsRegions(state, dudt, 0, regions, geom, net, eos, nullptr, recon);
            dev.detach();
        }
        const auto& ks = dev.kernelStats();
        const std::string flux =
            recon == Reconstruction::PPM ? "hydro_flux_ppm" : "hydro_flux";
        EXPECT_EQ(dev.numLaunches(), 3);
        ASSERT_EQ(ks.size(), 3u);
        EXPECT_EQ(ks.at("hydro_ctoprim").launches, 1);
        EXPECT_EQ(ks.at("hydro_ctoprim").zones, grow(dom, width).numPts());
        EXPECT_EQ(ks.at(flux).launches, 1);
        EXPECT_EQ(ks.at(flux).zones, faces);
        EXPECT_EQ(ks.at("cons_update").launches, 1);
        EXPECT_EQ(ks.at("cons_update").zones, zones * nc);
    }
}

TEST(MolRhs, FusedRegionListMatchesPerRegionCallsOnEveryBackend) {
    // One call over each fab's interior + shell list and one call per
    // region give the same dU/dt and the same register fluxes bit for
    // bit, on all four backends, for PLM and PPM. Under Debug the fused
    // flux launch also passes the cross-tag collision check: every
    // (region, direction) tag writes its own face-flux fab.
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const Box dom({0, 0, 0}, {15, 15, 15});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(8);
    const DistributionMapping dm(ba, 2);
    const int nc = StateLayout(net.nspec()).ncomp();

    for (const Reconstruction recon : {Reconstruction::PLM, Reconstruction::PPM}) {
        for (const Backend be :
             {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
            SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)) + " recon " +
                         std::to_string(static_cast<int>(recon)));
            ScopedBackend sb(be);
            const int width = stencilWidth(recon);
            MultiFab state(ba, dm, nc, width);
            fillSmoothState(state, geom, net, eos);

            auto sweep = [&](bool fused) {
                MultiFab dudt(ba, dm, nc, 0);
                auto fluxes = makeFluxFabs(ba, dm, nc);
                for (std::size_t f = 0; f < state.size(); ++f) {
                    const int fi = static_cast<int>(f);
                    const Box& vb = state.box(fi);
                    const Box inner = grow(vb, -width);
                    std::vector<Box> regions{inner};
                    for (const Box& b : boxDiff(vb, inner)) regions.push_back(b);
                    EXPECT_EQ(regions.size(), 1 + FabRegions::kMaxShell);
                    if (fused) {
                        molRhsRegions(state, dudt, fi, regions, geom, net, eos, &fluxes,
                                      recon);
                    } else {
                        for (const Box& r : regions) {
                            molRhsRegions(state, dudt, fi, {&r, 1}, geom, net, eos,
                                          &fluxes, recon);
                        }
                    }
                }
                std::vector<std::vector<Real>> out{validState(dudt)};
                for (const MultiFab& fx : fluxes) out.push_back(validState(fx));
                return out;
            };
            const auto fused = sweep(true);
            const auto split = sweep(false);
            EXPECT_EQ(fused[0], split[0]) << "dU/dt";
            for (int d = 0; d < 3; ++d) {
                EXPECT_EQ(fused[1 + d], split[1 + d]) << "fluxes along " << d;
            }
        }
    }
}

TEST(MolRhs, RegisterCopiesAreOneLaunchPerRegion) {
    // With the fluxes out-param, each region's three face-flux fabs reach
    // the register MultiFabs in one fab_copy launch: one per region, not
    // one per (region, direction). Bits are pinned against per-region
    // calls by FusedRegionListMatchesPerRegionCallsOnEveryBackend.
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const Box dom({0, 0, 0}, {15, 15, 15});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    const BoxArray ba(dom);
    const DistributionMapping dm(ba, 1);
    const int nc = StateLayout(net.nspec()).ncomp();
    const int width = stencilWidth(Reconstruction::PLM);
    MultiFab state(ba, dm, nc, width);
    fillSmoothState(state, geom, net, eos);
    MultiFab dudt(ba, dm, nc, 0);
    auto fluxes = makeFluxFabs(ba, dm, nc);
    const Box inner = grow(dom, -width);
    std::vector<Box> regions{inner};
    for (const Box& b : boxDiff(dom, inner)) regions.push_back(b);
    std::int64_t faces = 0;
    for (const Box& r : regions)
        for (int d = 0; d < 3; ++d) faces += surroundingFaces(r, d).numPts();

    DeviceModel dev;
    {
        ScopedBackend sb(Backend::SimGpu);
        dev.attach();
        molRhsRegions(state, dudt, 0, regions, geom, net, eos, &fluxes);
        dev.detach();
    }
    const auto& ks = dev.kernelStats();
    EXPECT_EQ(dev.numLaunches(), 3 + static_cast<std::int64_t>(regions.size()));
    ASSERT_EQ(ks.count("fab_copy"), 1u);
    EXPECT_EQ(ks.at("fab_copy").launches, static_cast<std::int64_t>(regions.size()));
    EXPECT_EQ(ks.at("fab_copy").zones, faces * nc);
}

TEST(EnforceConsistency, OneLaunchMatchesPerFabCallsOnEveryBackend) {
    // One launch over every fab gives the bits of one call per fab (each
    // fab alone in a MultiFab) on all four backends, with density floors
    // and species renormalization engaged; Debug checks every launch.
    auto net = makeIgnitionSimple();
    Eos eos{GammaLawEos{1.4}};
    const Box dom({0, 0, 0}, {15, 15, 15});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(8);
    const DistributionMapping dm(ba, 2);
    const int nc = StateLayout(net.nspec()).ncomp();
    const Real small_dens = 0.8;
    auto fresh = [&] {
        MultiFab state(ba, dm, nc, 1);
        fillSmoothState(state, geom, net, eos);
        for (std::size_t f = 0; f < state.size(); ++f) {
            auto u = state.array(static_cast<int>(f));
            const Box& vb = state.box(static_cast<int>(f));
            u(vb.smallEnd(0), vb.smallEnd(1), vb.smallEnd(2), StateLayout::UFS) *= -1.0;
            u(vb.bigEnd(0), vb.bigEnd(1), vb.bigEnd(2), StateLayout::UFS + 1) *= 1.7;
        }
        return state;
    };
    std::vector<Real> ref;
    {
        ScopedBackend sb(Backend::Serial);
        MultiFab state = fresh();
        for (std::size_t f = 0; f < state.size(); ++f) {
            const int fi = static_cast<int>(f);
            const BoxArray one(state.box(fi));
            MultiFab alone(one, DistributionMapping(one, 1), nc, 0);
            alone.fab(0).copyFrom(state.fab(fi), state.box(fi), 0, state.box(fi), 0, nc);
            enforceConsistency(alone, net, eos, small_dens);
            state.fab(fi).copyFrom(alone.fab(0), state.box(fi), 0, state.box(fi), 0, nc);
        }
        ref = validState(state);
    }
    MultiFab untouched = fresh();
    ASSERT_NE(validState(untouched), ref);
    CheckEveryLaunch check;
    for (const Backend be :
         {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
        SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)));
        ScopedBackend sb(be);
        MultiFab state = fresh();
        DeviceModel dev;
        dev.attach();
        enforceConsistency(state, net, eos, small_dens);
        dev.detach();
        EXPECT_EQ(validState(state), ref);
        if (be == Backend::SimGpu) {
            EXPECT_EQ(dev.numLaunches(), 1);
            EXPECT_EQ(dev.kernelStats().at("enforce_consistency").zones, dom.numPts());
        }
    }
}

TEST(CastroHydro, PpmSharperThanPlmOnSod) {
    // Both schemes must conserve and converge; PPM should resolve the
    // contact at least as sharply (fewer zones across the jump).
    auto net = makeIgnitionSimple();
    auto run = [&](Reconstruction recon) {
        Box dom({0, 0, 0}, {63, 3, 3});
        Geometry geom(dom, {0, 0, 0}, {1.0, 0.0625, 0.0625});
        AmrInfo info;
        info.max_grid_size = 32;
        info.nranks = 2;
        CastroOptions opt;
        opt.bc = DomainBC::allOutflow();
        opt.cfl = 0.4;
        opt.reconstruction = recon;
        Eos eos{GammaLawEos{1.4}};
        Castro c(geom, info, net, eos, opt, [&](Real x, Real, Real) {
            Castro::InitialZone z;
            z.rho = x < 0.5 ? 1.0 : 0.125;
            z.p = x < 0.5 ? 1.0 : 0.1;
            z.X = {1.0, 0.0};
            return z;
        });
        c.init();
        while (c.time() < 0.15) c.step(std::min(c.estimateDt(), 0.15 - c.time()));
        std::vector<Real> line(64);
        for (std::size_t b = 0; b < c.state().size(); ++b) {
            auto a = c.state().const_array(static_cast<int>(b));
            const Box& vb = c.state().box(static_cast<int>(b));
            if (vb.smallEnd(1) > 1 || vb.bigEnd(1) < 1) continue;
            if (vb.smallEnd(2) > 1 || vb.bigEnd(2) < 1) continue;
            for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                line[i] = a(i, 1, 1, StateLayout::URHO);
            }
        }
        return line;
    };
    auto plm = run(Reconstruction::PLM);
    auto ppm = run(Reconstruction::PPM);
    // Same plateaus.
    EXPECT_NEAR(plm[45], ppm[45], 0.03);
    // Contact width: zones with 0.30 < rho < 0.40 (between the plateaus).
    auto width = [](const std::vector<Real>& l) {
        int w = 0;
        for (Real v : l) w += (v > 0.30 && v < 0.40) ? 1 : 0;
        return w;
    };
    EXPECT_LE(width(ppm), width(plm));
}
