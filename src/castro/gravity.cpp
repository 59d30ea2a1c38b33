#include "castro/gravity.hpp"

#include "core/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace exa::castro {

GravityType gravityTypeFromName(const std::string& name) {
    if (name == "none") return GravityType::None;
    if (name == "monopole") return GravityType::Monopole;
    if (name == "poisson" || name == "poisson-amr") return GravityType::Poisson;
    throw std::invalid_argument("unknown gravity type: " + name);
}

Gravity::Gravity(GravityType type, const Geometry& geom, int /*nspec*/)
    : m_type(type), m_geom(geom) {
    m_center = {0.5 * (geom.probLo(0) + geom.probHi(0)),
                0.5 * (geom.probLo(1) + geom.probHi(1)),
                0.5 * (geom.probLo(2) + geom.probHi(2))};
}

void Gravity::solve(const MultiFab& state) {
    if (m_type == GravityType::None) return;
    if (!m_defined) {
        m_g.define(state.boxArray(), state.distributionMap(), 3, 0);
        if (m_type == GravityType::Poisson) {
            m_phi.define(state.boxArray(), state.distributionMap(), 1, 1);
            m_phi.setVal(0.0);
        }
        m_defined = true;
    }
    if (m_type == GravityType::Monopole) {
        solveMonopole(state);
    } else {
        solvePoisson(state);
    }
}

std::vector<MultiFab*> Gravity::rebalanceFabs() {
    std::vector<MultiFab*> fabs;
    if (!m_defined) return fabs;
    fabs.push_back(&m_g);
    if (m_type == GravityType::Poisson) fabs.push_back(&m_phi);
    return fabs;
}

MgEvent Gravity::mgTotals() const {
    MgEvent e;
    if (m_cmg) {
        const CompositeMgStats& s = m_cmg->stats();
        e.fmg_cycles = s.fmg_cycles;
        e.vcycles = s.vcycles;
        e.sweeps = s.sweeps;
        e.agg_copies = s.agg_copies;
        e.agg_bytes = s.agg_bytes;
    }
    return e;
}

void Gravity::solveMonopole(const MultiFab& state) {
    // Radial mass histogram about the center.
    const Real dx = m_geom.cellSize(0);
    const Real rmax =
        0.5 * std::sqrt(3.0) *
        std::max({m_geom.probHi(0) - m_geom.probLo(0),
                  m_geom.probHi(1) - m_geom.probLo(1),
                  m_geom.probHi(2) - m_geom.probLo(2)});
    const int nbins = std::max(16, m_geom.domain().length(0));
    const Real dr = rmax / nbins;
    std::vector<Real> mass(nbins, 0.0);

    const Real vol = m_geom.cellVolume();
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.const_array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real x = m_geom.cellCenter(0, i) - m_center[0];
                    const Real y = m_geom.cellCenter(1, j) - m_center[1];
                    const Real z = m_geom.cellCenter(2, k) - m_center[2];
                    const Real r = std::sqrt(x * x + y * y + z * z);
                    const int b = std::min(static_cast<int>(r / dr), nbins - 1);
                    mass[b] += u(i, j, k, StateLayout::URHO) * vol;
                }
            }
        }
    }
    // Enclosed mass (cumulative).
    std::vector<Real> menc(nbins + 1, 0.0);
    for (int b = 0; b < nbins; ++b) menc[b + 1] = menc[b] + mass[b];

    const Real* mencp = menc.data();
    const Geometry geom = m_geom;
    const auto center = m_center;
    for (std::size_t f = 0; f < m_g.size(); ++f) {
        auto g = m_g.array(static_cast<int>(f));
        auto u = state.const_array(static_cast<int>(f));
        (void)u;
        ParallelFor(KernelInfo{"grav_monopole", 40.0, 48.0, 48, 1.0},
                    m_g.box(static_cast<int>(f)), [=](int i, int j, int k) {
                        const Real x = geom.cellCenter(0, i) - center[0];
                        const Real y = geom.cellCenter(1, j) - center[1];
                        const Real z = geom.cellCenter(2, k) - center[2];
                        const Real r =
                            std::max(std::sqrt(x * x + y * y + z * z), 0.25 * dx);
                        const int b = std::min(static_cast<int>(r / dr),
                                               static_cast<int>(nbins));
                        const Real gm = -constants::G_newton * mencp[b] / (r * r);
                        g(i, j, k, 0) = gm * x / r;
                        g(i, j, k, 1) = gm * y / r;
                        g(i, j, k, 2) = gm * z / r;
                    });
    }
}

void computeGravityAccel(const MultiFab& phi, MultiFab& g, const Geometry& geom) {
    for (std::size_t f = 0; f < g.size(); ++f) {
        auto ga = g.array(static_cast<int>(f));
        auto p = phi.const_array(static_cast<int>(f));
        const Box& vb = g.box(static_cast<int>(f));
        const Box& dom = geom.domain();
        const Geometry gm = geom;
        ParallelFor(KernelInfo{"grav_grad_phi", 20.0, 64.0, 40, 1.0}, vb,
                    [=](int i, int j, int k) {
                        auto grad = [&](int d) {
                            const IntVect e = IntVect::basis(d);
                            const IntVect lo{i - e.x, j - e.y, k - e.z};
                            const IntVect hi{i + e.x, j + e.y, k + e.z};
                            Real pm = dom.contains(lo) ? p(lo.x, lo.y, lo.z) : 0.0;
                            Real pp = dom.contains(hi) ? p(hi.x, hi.y, hi.z) : 0.0;
                            // One-sided at the domain edge (phi -> 0 far away).
                            return (pp - pm) / (2.0 * gm.cellSize(d));
                        };
                        ga(i, j, k, 0) = -grad(0);
                        ga(i, j, k, 1) = -grad(1);
                        ga(i, j, k, 2) = -grad(2);
                    });
    }
}

void applyGravitySource(MultiFab& state, const MultiFab& g, Real dt) {
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.array(static_cast<int>(f));
        auto ga = g.const_array(static_cast<int>(f));
        ParallelFor(KernelInfo{"grav_source", 30.0, 100.0, 48, 1.0},
                    state.box(static_cast<int>(f)), [=](int i, int j, int k) {
                        const Real rho = u(i, j, k, StateLayout::URHO);
                        Real mom[3] = {u(i, j, k, StateLayout::UMX),
                                       u(i, j, k, StateLayout::UMX + 1),
                                       u(i, j, k, StateLayout::UMX + 2)};
                        Real de = 0.0;
                        for (int d = 0; d < 3; ++d) {
                            const Real dm = dt * rho * ga(i, j, k, d);
                            // Trapezoidal energy source: (mom_old+mom_new)/2 . g
                            de += dt * (mom[d] + 0.5 * dm) * ga(i, j, k, d);
                            mom[d] += dm;
                            u(i, j, k, StateLayout::UMX + d) = mom[d];
                        }
                        u(i, j, k, StateLayout::UEDEN) += de;
                    });
    }
}

namespace {

// rhs = 4 pi G rho on the state's layout.
MultiFab makeGravityRhs(const MultiFab& state) {
    MultiFab rhs(state.boxArray(), state.distributionMap(), 1, 0);
    for (std::size_t f = 0; f < rhs.size(); ++f) {
        auto r = rhs.array(static_cast<int>(f));
        auto u = state.const_array(static_cast<int>(f));
        ParallelFor(rhs.box(static_cast<int>(f)), [=](int i, int j, int k) {
            r(i, j, k) = 4.0 * constants::pi * constants::G_newton *
                         u(i, j, k, StateLayout::URHO);
        });
    }
    return rhs;
}

} // namespace

void Gravity::solvePoisson(const MultiFab& state) {
    // The composite solver captures the layout at construction; a
    // rebalance migrates the state (and m_phi/m_g with it), so rebuild on
    // any layout-id change. Solves are cold, so a rebuild costs setup
    // only — the answer is unchanged.
    if (!m_cmg || m_cmg_ba_id != state.boxArray().id() ||
        m_cmg_dm_id != state.distributionMap().id()) {
        CompositeMgOptions opt;
        opt.rtol = 1.0e-10;
        opt.nranks = state.distributionMap().numRanks();
        m_cmg = std::make_unique<CompositeMg>(
            std::vector<Geometry>{m_geom},
            std::vector<BoxArray>{state.boxArray()},
            std::vector<DistributionMapping>{state.distributionMap()}, 2,
            MgBC::Dirichlet, opt);
        m_cmg_ba_id = state.boxArray().id();
        m_cmg_dm_id = state.distributionMap().id();
    }
    MultiFab rhs = makeGravityRhs(state);
    auto res = m_cmg->solve({&m_phi}, {&rhs});
    m_last_vcycles = res.vcycles;
    m_cmg->fillCompositeGhosts({&m_phi});
    computeGravityAccel(m_phi, m_g, m_geom);
}

void Gravity::addSource(MultiFab& state, Real dt) const {
    if (m_type == GravityType::None) return;
    applyGravitySource(state, m_g, dt);
}

} // namespace exa::castro
