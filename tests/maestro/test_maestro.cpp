#include "core/parallel_for.hpp"
#include "maestro/maestro.hpp"

#include <gtest/gtest.h>

#include <cmath>

using namespace exa;
using namespace exa::maestro;

TEST(BaseState, HydrostaticBalanceHolds) {
    Eos eos{HelmLiteEos{}};
    auto net = makeIgnitionSimple();
    std::vector<Real> X = {1.0, 0.0};
    const int nz = 64;
    const Real dz = 1.0e6;
    const Real g = -1.5e10;
    BaseState base(eos, net, 2.6e9, 6.0e8, X, nz, 0.0, dz, g);

    EXPECT_EQ(base.nz(), nz);
    // dp0/dz ~ g * rho0 between adjacent zones, within integration error.
    for (int k = 1; k < nz; ++k) {
        const Real dpdz = (base.p0(k) - base.p0(k - 1)) / dz;
        const Real rho_mid = 0.5 * (base.rho0(k) + base.rho0(k - 1));
        ASSERT_NEAR(dpdz / (g * rho_mid), 1.0, 1e-3) << "zone " << k;
    }
    // Density decreases upward.
    EXPECT_LT(base.rho0(nz - 1), base.rho0(0));
}

TEST(BaseState, IndexClamping) {
    Eos eos{HelmLiteEos{}};
    auto net = makeIgnitionSimple();
    std::vector<Real> X = {1.0, 0.0};
    BaseState base(eos, net, 1.0e9, 5.0e8, X, 8, 0.0, 1.0e6, -1.0e10);
    EXPECT_DOUBLE_EQ(base.rho0(-3), base.rho0(0));
    EXPECT_DOUBLE_EQ(base.rho0(100), base.rho0(7));
}

namespace {

std::unique_ptr<Maestro> makeBubbleNoReact(int n) {
    BubbleParams p;
    p.ncell = n;
    p.max_grid_size = std::max(8, n / 2);
    p.do_react = false;
    // The Maestro keeps a reference to the network: give it static storage.
    static const ReactionNetwork net = makeIgnitionSimple();
    return p.build(net);
}

} // namespace

TEST(Maestro, RhoOfMatchesBaseStateAtBaseConditions) {
    auto m = makeBubbleNoReact(8);
    const auto& base = m->base();
    std::vector<Real> X = {1.0, 0.0};
    for (int k : {0, 3, 7}) {
        EXPECT_NEAR(m->rhoOf(k, base.T0(k), X.data()) / base.rho0(k), 1.0, 1e-8);
    }
    // Hotter -> less dense at the same pressure.
    EXPECT_LT(m->rhoOf(3, 2.0 * base.T0(3), X.data()), base.rho0(3));
}

TEST(Maestro, ProjectionReducesDivergence) {
    auto m = makeBubbleNoReact(16);
    // Inject a strongly divergent velocity field.
    auto& s = m->state();
    const Geometry& g = m->geom();
    for (std::size_t b = 0; b < s.size(); ++b) {
        auto q = s.array(static_cast<int>(b));
        const Box& vb = s.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real x = g.cellCenter(0, i) / g.probHi(0);
                    const Real y = g.cellCenter(1, j) / g.probHi(1);
                    const Real z = g.cellCenter(2, k) / g.probHi(2);
                    q(i, j, k, 0) = 1.0e5 * std::sin(2 * constants::pi * x);
                    q(i, j, k, 1) = 1.0e5 * std::cos(2 * constants::pi * y);
                    q(i, j, k, 2) = 1.0e5 * z * (1.0 - z);
                }
    }
    const Real div0 = m->maxAbsDivergence();
    ASSERT_GT(div0, 0.0);
    m->project();
    const Real div1 = m->maxAbsDivergence();
    EXPECT_LT(div1, 0.35 * div0); // approximate projection: large reduction
    EXPECT_GT(m->lastProjectionVcycles(), 0);
}

TEST(Maestro, QuiescentAtmosphereStaysQuiescent) {
    // No bubble: the base state is in equilibrium, so velocities stay
    // negligible compared to the bubble case.
    BubbleParams p;
    p.ncell = 16;
    p.do_react = false;
    p.T_bubble = p.T_base; // no perturbation
    auto net = makeIgnitionSimple();
    auto m = p.build(net);
    for (int s = 0; s < 5; ++s) m->step(std::min(m->estimateDt(), 1.0e-4));
    Real umax = 0.0;
    for (std::size_t b = 0; b < m->state().size(); ++b) {
        auto q = m->state().const_array(static_cast<int>(b));
        const Box& vb = m->state().box(static_cast<int>(b));
        umax = std::max(umax, ParallelReduceMax(vb, [=](int i, int j, int k) {
                            return std::abs(q(i, j, k, MaestroLayout::QW));
                        }));
    }
    EXPECT_LT(umax, 1.0e3); // cm/s; bubble runs develop ~1e6-1e7
}

TEST(Maestro, HotBubbleRises) {
    BubbleParams p;
    p.ncell = 16;
    p.do_react = false;
    auto net = makeIgnitionSimple();
    auto m = p.build(net);
    const Real h0 = m->bubbleHeight();
    for (int s = 0; s < 12; ++s) m->step(m->estimateDt());
    const Real h1 = m->bubbleHeight();
    EXPECT_GT(h1, h0 + 0.25 * m->geom().cellSize(2));
    // And it rose with upward velocity present.
    EXPECT_GT(m->state().max(MaestroLayout::QW), 0.0);
}

TEST(Maestro, ReactionsHeatTheBubble) {
    BubbleParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.do_react = true;
    p.T_bubble = 1.0e9; // vigorous carbon burning at rho ~ 2.6e9
    auto net = makeIgnitionSimple();
    auto m = p.build(net);
    const Real T0 = m->maxTemperature();
    auto burn = m->step(1.0e-8);
    EXPECT_GT(burn.zones, 0);
    EXPECT_GT(m->maxTemperature(), T0);
    // Fuel was consumed somewhere.
    Real xmin = 1.0;
    for (std::size_t b = 0; b < m->state().size(); ++b) {
        auto q = m->state().const_array(static_cast<int>(b));
        const Box& vb = m->state().box(static_cast<int>(b));
        xmin = std::min(xmin, ParallelReduceMin(vb, [=](int i, int j, int k) {
                            return q(i, j, k, MaestroLayout::QFS);
                        }));
    }
    EXPECT_LT(xmin, 1.0);
}

TEST(Maestro, TimestepHasNoSoundSpeed) {
    // The low Mach step at near-rest conditions must vastly exceed the
    // compressible CFL dt ~ dx/cs (cs ~ 1e9 cm/s at WD densities).
    auto m = makeBubbleNoReact(16);
    const Real dx = m->geom().cellSize(0);
    const Real dt = m->estimateDt();
    const Real dt_compressible = dx / 1.0e9;
    EXPECT_GT(dt, 20.0 * dt_compressible);
}

TEST(Maestro, AdvectionPreservesConstantField) {
    auto m = makeBubbleNoReact(8);
    // Constant T and X with a uniform velocity: one step must leave T
    // unchanged (the advection scheme preserves constants exactly).
    auto& s = m->state();
    for (std::size_t b = 0; b < s.size(); ++b) {
        auto q = s.array(static_cast<int>(b));
        const Box& vb = s.box(static_cast<int>(b));
        ParallelFor(vb, [=](int i, int j, int k) {
            q(i, j, k, MaestroLayout::QU) = 1.0e5;
            q(i, j, k, MaestroLayout::QV) = 0.0;
            q(i, j, k, MaestroLayout::QW) = 0.0;
            q(i, j, k, MaestroLayout::QT) = 5.5e8;
        });
    }
    // advect() is private; a full step also applies buoyancy (T uniform
    // at fixed z varies rho vs rho0 — nonzero, so only check T).
    m->step(1.0e-4);
    EXPECT_NEAR(m->state().min(MaestroLayout::QT), 5.5e8, 1.0);
    EXPECT_NEAR(m->state().max(MaestroLayout::QT), 5.5e8, 1.0);
}
