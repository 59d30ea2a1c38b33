// Property-based sweeps across module boundaries: randomized states and
// parameter grids exercising invariants that must hold everywhere, not
// just at hand-picked points.

#include "castro/hydro.hpp"
#include "microphysics/bdf.hpp"
#include "microphysics/burner.hpp"
#include "core/parallel_for.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace exa;
using namespace exa::castro;

// ---------------------------------------------------------------------
// HLLC properties over randomized states.
// ---------------------------------------------------------------------

namespace {

std::vector<Real> randomPrim(std::mt19937& gen, int nspec) {
    std::uniform_real_distribution<double> u(0.1, 3.0);
    std::uniform_real_distribution<double> v(-1.0, 1.0);
    PrimLayout Q(nspec);
    std::vector<Real> q(Q.ncomp());
    q[PrimLayout::QRHO] = u(gen);
    q[PrimLayout::QU] = v(gen);
    q[PrimLayout::QV] = v(gen);
    q[PrimLayout::QW] = v(gen);
    q[PrimLayout::QP] = u(gen);
    q[PrimLayout::QREINT] = q[PrimLayout::QP] / 0.4;
    q[PrimLayout::QC] = std::sqrt(1.4 * q[PrimLayout::QP] / q[PrimLayout::QRHO]);
    Real xsum = 0.0;
    for (int n = 0; n < nspec; ++n) {
        q[PrimLayout::QFS + n] = u(gen);
        xsum += q[PrimLayout::QFS + n];
    }
    for (int n = 0; n < nspec; ++n) q[PrimLayout::QFS + n] /= xsum;
    return q;
}

// Mirror a state across the x face (flip normal velocity).
std::vector<Real> mirrored(std::vector<Real> q) {
    q[PrimLayout::QU] = -q[PrimLayout::QU];
    return q;
}

} // namespace

class HllcRandomStates : public ::testing::TestWithParam<int> {};

TEST_P(HllcRandomStates, ConsistencyAndMirrorSymmetry) {
    std::mt19937 gen(GetParam());
    const int nspec = 2;
    StateLayout S(nspec);
    for (int trial = 0; trial < 50; ++trial) {
        auto ql = randomPrim(gen, nspec);
        auto qr = randomPrim(gen, nspec);

        // Consistency: F(q, q) is the exact physical flux of q.
        std::vector<Real> f(S.ncomp());
        hllcFlux(ql.data(), ql.data(), nspec, 0, f.data());
        const Real rho = ql[PrimLayout::QRHO], un = ql[PrimLayout::QU];
        ASSERT_NEAR(f[StateLayout::URHO], rho * un, 1e-12);
        ASSERT_NEAR(f[StateLayout::UMX],
                    rho * un * un + ql[PrimLayout::QP], 1e-12);

        // Mirror symmetry: flipping both states and the axis negates the
        // mass flux and preserves the momentum flux.
        std::vector<Real> fab(S.ncomp()), fba(S.ncomp());
        hllcFlux(ql.data(), qr.data(), nspec, 0, fab.data());
        hllcFlux(mirrored(qr).data(), mirrored(ql).data(), nspec, 0, fba.data());
        ASSERT_NEAR(fab[StateLayout::URHO], -fba[StateLayout::URHO],
                    1e-11 * (1 + std::abs(fab[StateLayout::URHO])));
        ASSERT_NEAR(fab[StateLayout::UMX], fba[StateLayout::UMX],
                    1e-11 * (1 + std::abs(fab[StateLayout::UMX])));
        ASSERT_NEAR(fab[StateLayout::UEDEN], -fba[StateLayout::UEDEN],
                    1e-11 * (1 + std::abs(fab[StateLayout::UEDEN])));

        // Species fluxes are a convex partition of the mass flux.
        Real sf = 0.0;
        for (int n = 0; n < nspec; ++n) sf += fab[StateLayout::UFS + n];
        ASSERT_NEAR(sf, fab[StateLayout::URHO],
                    1e-11 * (1 + std::abs(fab[StateLayout::URHO])));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HllcRandomStates, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// EOS thermodynamic-consistency sweep over the (rho, T) plane.
// ---------------------------------------------------------------------

class EosConsistency
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EosConsistency, HelmLiteIsThermodynamicallySane) {
    auto [lrho, lT] = GetParam();
    const Real rho = std::pow(10.0, lrho);
    const Real T = std::pow(10.0, lT);
    HelmLiteEos eos;
    EosState s;
    s.rho = rho;
    s.T = T;
    s.abar = 13.7;
    s.ye = 0.5;
    eos.rhoT(s);
    EXPECT_GT(s.p, 0.0);
    EXPECT_GT(s.e, 0.0);
    EXPECT_GT(s.cv, 0.0);
    EXPECT_GT(s.dpdr, 0.0);  // mechanical stability
    EXPECT_GT(s.dpdT, 0.0);
    EXPECT_GT(s.gamma1, 1.0);
    EXPECT_LT(s.gamma1, 3.0);
    EXPECT_LT(s.cs, constants::c_light);

    // (dp/drho)_T finite-difference check: 1% tolerance.
    EosState sp = s;
    sp.rho = rho * 1.001;
    eos.rhoT(sp);
    const Real fd = (sp.p - s.p) / (rho * 0.001);
    EXPECT_NEAR(fd / s.dpdr, 1.0, 0.02);

    // rhoE inversion consistency everywhere on the grid.
    EosState inv;
    inv.rho = rho;
    inv.e = s.e;
    inv.abar = s.abar;
    inv.ye = s.ye;
    eos.rhoE(inv);
    EXPECT_NEAR(inv.T / T, 1.0, 1e-5);
}

// The grid covers the white-dwarf regime the EOS is built for. (At very
// low density and T ~ 4e9 K the gas is radiation dominated and this
// non-relativistic formulation returns cs > c — production Helmholtz
// carries the relativistic corrections; ours documents the limit here.)
INSTANTIATE_TEST_SUITE_P(
    RhoTGrid, EosConsistency,
    ::testing::Combine(::testing::Values(4.0, 5.0, 6.0, 8.0),   // log10 rho
                       ::testing::Values(7.0, 8.0, 9.0, 9.6))); // log10 T

// ---------------------------------------------------------------------
// BDF order-of-accuracy sweep.
// ---------------------------------------------------------------------

namespace {
class Oscillator final : public OdeSystem {
public:
    int size() const override { return 2; }
    void rhs(Real, const std::vector<Real>& y, std::vector<Real>& f) override {
        f.resize(2);
        f[0] = y[1];
        f[1] = -y[0];
    }
    void jacobian(Real, const std::vector<Real>&, DenseMatrix& j) override {
        j.setZero();
        j(0, 1) = 1.0;
        j(1, 0) = -1.0;
    }
};
} // namespace

class BdfAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(BdfAccuracy, ErrorShrinksWithTolerance) {
    const double rtol = GetParam();
    Oscillator sys;
    std::vector<Real> y = {1.0, 0.0};
    OdeOptions opt;
    opt.rtol = rtol;
    opt.atol = rtol * 1e-3;
    BdfIntegrator bdf;
    auto st = bdf.integrate(sys, y, 0.0, 3.0, opt);
    ASSERT_TRUE(st.success);
    const Real err = std::abs(y[0] - std::cos(3.0)) + std::abs(y[1] + std::sin(3.0));
    // Global error tracks the tolerance within ~three orders of magnitude.
    EXPECT_LT(err, 1000.0 * rtol + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Tols, BdfAccuracy, ::testing::Values(1e-4, 1e-6, 1e-8));

// ---------------------------------------------------------------------
// The Poisson solver (single-level CompositeMg) over anisotropic cell
// sizes.
// ---------------------------------------------------------------------

class MgAnisotropy : public ::testing::TestWithParam<double> {};

TEST_P(MgAnisotropy, ConvergesWithStretchedZones) {
    const double stretch = GetParam();
    const int n = 16;
    Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    Geometry geom(dom, {0, 0, 0}, {1.0, 1.0, stretch}, IntVect{1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(8);
    DistributionMapping dm(ba, 2);
    MultiFab phi(ba, dm, 1, 1), rhs(ba, dm, 1, 0);
    phi.setVal(0.0);
    const Real pi = constants::pi;
    for (std::size_t i = 0; i < rhs.size(); ++i) {
        auto r = rhs.array(static_cast<int>(i));
        ParallelFor(rhs.box(static_cast<int>(i)), [=, &geom](int ii, int j, int kk) {
            r(ii, j, kk) = std::sin(2 * pi * geom.cellCenter(0, ii)) *
                           std::sin(2 * pi * geom.cellCenter(1, j) ) *
                           std::sin(2 * pi * geom.cellCenter(2, kk) / stretch);
        });
    }
    CompositeMgOptions opt;
    opt.max_vcycles = 200; // anisotropy slows point smoothers
    opt.nranks = 2;
    CompositeMg mg({geom}, {ba}, {dm}, 2, MgBC::Periodic, opt);
    auto res = mg.solve({&phi}, {&rhs});
    EXPECT_TRUE(res.converged);
}

INSTANTIATE_TEST_SUITE_P(Stretch, MgAnisotropy, ::testing::Values(1.0, 2.0));

// ---------------------------------------------------------------------
// Burn invariants over a parameter grid.
// ---------------------------------------------------------------------

class BurnInvariants
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BurnInvariants, MassFractionsNormalizedEnergyPositive) {
    auto [lrho, lT] = GetParam();
    auto net = makeAprox13();
    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(13, 0.0);
    X[0] = 0.05;
    X[1] = 0.5;
    X[2] = 0.45;
    auto r = burnZone(net, eos, std::pow(10.0, lrho), std::pow(10.0, lT), X.data(),
                      1.0e-8);
    ASSERT_TRUE(r.success);
    Real xsum = 0.0;
    for (Real x : r.X) {
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
        xsum += x;
    }
    EXPECT_NEAR(xsum, 1.0, 1e-10);
    EXPECT_GE(r.e_nuc, -1e-8); // fusion of light fuel releases energy
    EXPECT_GE(r.T, std::pow(10.0, lT) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Grid, BurnInvariants,
                         ::testing::Combine(::testing::Values(6.0, 7.5),
                                            ::testing::Values(8.8, 9.3, 9.6)));
