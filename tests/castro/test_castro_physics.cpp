#include "castro/sedov.hpp"
#include "castro/wd_collision.hpp"

#include <gtest/gtest.h>

#include <cmath>

using namespace exa;
using namespace exa::castro;

TEST(Sedov, BlastWaveExpandsSelfSimilarly) {
    auto net = makeIgnitionSimple();
    SedovParams p;
    p.ncell = 32;
    p.max_grid_size = 16;
    auto c = p.build(net);

    // March to two times and check R ~ t^(2/5).
    auto advanceTo = [&](Real t) {
        while (c->time() < t) c->step(std::min(c->estimateDt(), t - c->time()));
    };
    advanceTo(0.02);
    const Real r1 = measureShockRadius(*c, p.rho0);
    advanceTo(0.06);
    const Real r2 = measureShockRadius(*c, p.rho0);
    ASSERT_GT(r1, 0.0);
    ASSERT_GT(r2, r1);
    const Real slope = std::log(r2 / r1) / std::log(0.06 / 0.02);
    EXPECT_NEAR(slope, 0.4, 0.12); // t^{2/5}, loose at 32^3

    // Absolute radius within ~20% of the similarity solution.
    EXPECT_NEAR(r2 / sedovShockRadius(0.06, p.E, p.rho0), 1.0, 0.25);
}

TEST(Sedov, EnergyIsConservedAndShockCompresses) {
    auto net = makeIgnitionSimple();
    SedovParams p;
    p.ncell = 32;
    auto c = p.build(net);
    const Real e0 = c->totalEnergy();
    while (c->time() < 0.05) c->step(std::min(c->estimateDt(), 0.05 - c->time()));
    // Outflow boundaries are far away at t = 0.05: energy conserved.
    EXPECT_NEAR(c->totalEnergy() / e0, 1.0, 1e-6);
    // Strong-shock compression approaches (gamma+1)/(gamma-1) = 6;
    // numerical smearing at 32^3 keeps it well above 2.
    EXPECT_GT(c->maxDensity(), 2.0);
}

TEST(WdProfile, HydrostaticStarHasExpectedScale) {
    auto net = makeAprox13();
    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(net.nspec(), 0.0);
    X[net.speciesIndex("c12")] = 0.5;
    X[net.speciesIndex("o16")] = 0.5;
    auto prof = buildWdProfile(eos, net, 5.0e6, 1.0e7, X);
    // A rho_c = 5e6 C/O white dwarf: R ~ 8-10 thousand km ("nearly 10,000
    // kilometers ... the same order of magnitude as the radius of the
    // Earth"), M ~ 0.6-0.9 Msun.
    EXPECT_GT(prof.radius, 5.0e8);
    EXPECT_LT(prof.radius, 1.4e9);
    EXPECT_GT(prof.mass / constants::M_sun, 0.4);
    EXPECT_LT(prof.mass / constants::M_sun, 1.2);
    // Monotone decreasing density.
    for (std::size_t i = 1; i < prof.rho.size(); ++i) {
        EXPECT_LE(prof.rho[i], prof.rho[i - 1] * (1 + 1e-12));
    }
    EXPECT_DOUBLE_EQ(prof.rhoAt(0.0), 5.0e6);
    EXPECT_EQ(prof.rhoAt(2.0 * prof.radius), 0.0);
}

TEST(WdProfile, MoreMassiveForHigherCentralDensity) {
    auto net = makeAprox13();
    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(net.nspec(), 0.0);
    X[net.speciesIndex("c12")] = 0.5;
    X[net.speciesIndex("o16")] = 0.5;
    auto lo = buildWdProfile(eos, net, 2.0e6, 1.0e7, X);
    auto hi = buildWdProfile(eos, net, 2.0e7, 1.0e7, X);
    EXPECT_GT(hi.mass, lo.mass);
    EXPECT_LT(hi.radius, lo.radius); // degenerate stars shrink with mass
}

TEST(WdCollision, StarsApproachAndHeatAtContact) {
    // Very coarse (16^3) smoke run of the Section V setup: the stars move
    // toward each other under their initial velocity + gravity; by a
    // free-fall-scale time the density at center rises and the contact
    // region heats well above the initial temperature.
    auto net = makeIgnitionSimple(); // cheap network for the smoke test
    WdCollisionParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.do_react = false; // pure hydro+gravity approach phase
    p.domain_width = 1.0e10;
    p.separation_in_diameters = 1.2;
    p.approach_velocity = 3.0e8;
    auto wd = p.build(net);

    const Real rho_center0 = [&] {
        // density at domain center at t=0 ~ ambient (stars offset)
        return wd.castro->state().max(StateLayout::URHO);
    }();
    (void)rho_center0;
    const Real T0 = wd.castro->maxTemperature();

    // Time for the stars to close: gap between surfaces / (2 v).
    const Real gap = p.separation_in_diameters * 2.0 * wd.profile.radius -
                     2.0 * wd.profile.radius;
    const Real t_contact = gap / (2.0 * p.approach_velocity);
    int steps = 0;
    while (wd.castro->time() < 1.5 * t_contact && steps < 400) {
        wd.castro->step(wd.castro->estimateDt());
        ++steps;
    }
    EXPECT_GT(wd.castro->maxTemperature(), 3.0 * T0);
    // The hottest zone is near the collision plane x ~ 0.
    auto hz = wd.castro->hottestZone();
    EXPECT_LT(std::abs(hz[0]), 0.3 * p.domain_width);
}

TEST(WdCollision, TimescaleRatioDiagnosticBehaves) {
    auto net = makeIgnitionSimple();
    WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.do_react = false;
    auto wd = p.build(net);
    // No zone is hot yet: the diagnostic must report "no constraint".
    EXPECT_GT(wd.castro->minBurnTimescaleRatio(1.0e9), 1.0e50);
}

TEST(Gravity, MonopoleUniformSphereField) {
    // g(r) inside a uniform sphere is linear in r; outside ~ 1/r^2.
    auto net = makeIgnitionSimple();
    Box dom({0, 0, 0}, {31, 31, 31});
    Geometry geom(dom, {-1.0e9, -1.0e9, -1.0e9}, {1.0e9, 1.0e9, 1.0e9});
    AmrInfo info;
    info.max_grid_size = 16;
    info.nranks = 2;
    CastroOptions opt;
    opt.gravity = GravityType::Monopole;
    Eos eos{GammaLawEos{5.0 / 3.0}};
    const Real R = 4.0e8, rho_in = 1.0e6;
    Castro c(geom, info, net, eos, opt, [&](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        const Real r = std::sqrt(x * x + y * y + z * z);
        zn.rho = r < R ? rho_in : 1.0;
        zn.T = 1.0e6;
        zn.X = {1.0, 0.0};
        return zn;
    });
    c.init();
    c.solveGravity();
    const auto& g = c.gravity().accel(0);

    const Real M = 4.0 / 3.0 * constants::pi * R * R * R * rho_in;
    // Probe |g| at r ~ R/2 (interior) and r ~ 2R (exterior) along x.
    auto probe = [&](Real xprobe) {
        // nearest zone center
        int i = static_cast<int>((xprobe - geom.probLo(0)) / geom.cellSize(0));
        Real val = 0.0;
        for (std::size_t b = 0; b < g.size(); ++b) {
            const Box& vb = g.box(static_cast<int>(b));
            if (vb.contains(i, 16, 16)) {
                val = g.const_array(static_cast<int>(b))(i, 16, 16, 0);
            }
        }
        return std::abs(val);
    };
    const Real g_half = probe(0.5 * R);
    const Real g_out = probe(2.0 * R);
    const Real g_surface_expect = constants::G_newton * M / (R * R);
    EXPECT_NEAR(g_half / (0.5 * g_surface_expect), 1.0, 0.2);
    EXPECT_NEAR(g_out / (0.25 * g_surface_expect), 1.0, 0.2);
}

TEST(Gravity, PoissonMatchesMonopoleForSphere) {
    auto net = makeIgnitionSimple();
    Box dom({0, 0, 0}, {31, 31, 31});
    Geometry geom(dom, {-1.0e9, -1.0e9, -1.0e9}, {1.0e9, 1.0e9, 1.0e9});
    AmrInfo info;
    info.max_grid_size = 16;
    info.nranks = 2;
    Eos eos{GammaLawEos{5.0 / 3.0}};

    auto makeC = [&](GravityType gt) {
        CastroOptions opt;
        opt.gravity = gt;
        Castro::InitFn init = [](Real x, Real y, Real z) {
            Castro::InitialZone zn;
            const Real r = std::sqrt(x * x + y * y + z * z);
            zn.rho = r < 3.0e8 ? 1.0e6 : 1.0;
            zn.T = 1.0e6;
            zn.X = {1.0, 0.0};
            return zn;
        };
        auto c = std::make_unique<Castro>(geom, info, net, eos, opt, init);
        c->init();
        c->solveGravity();
        return c;
    };
    auto cm = makeC(GravityType::Monopole);
    auto cp = makeC(GravityType::Poisson);
    // Compare the x-acceleration on the x axis at ~1.5 radii; the
    // Dirichlet-0 box boundary costs the Poisson solve some accuracy, so
    // compare loosely.
    auto probe = [&](const Gravity& g) {
        const int i = 24, j = 16, k = 16; // x ~ +5.3e8
        for (std::size_t b = 0; b < g.accel(0).size(); ++b) {
            const Box& vb = g.accel(0).box(static_cast<int>(b));
            if (vb.contains(i, j, k)) {
                return g.accel(0).const_array(static_cast<int>(b))(i, j, k, 0);
            }
        }
        return Real(0);
    };
    const Real gm = probe(cm->gravity());
    const Real gp = probe(cp->gravity());
    EXPECT_LT(gm, 0.0);
    EXPECT_LT(gp, 0.0);
    EXPECT_NEAR(gp / gm, 1.0, 0.25);
}
