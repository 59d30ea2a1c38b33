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

Gravity::Gravity(GravityType type) : m_type(type) {}

void Gravity::solve(const std::vector<Geometry>& geoms,
                    const std::vector<const MultiFab*>& states, int ref_ratio) {
    if (m_type == GravityType::None) return;
    const std::size_t nlev = m_type == GravityType::Monopole ? 1 : states.size();
    if (m_dirty) {
        m_phi.clear();
        m_g.clear();
        m_phi.resize(nlev);
        m_g.resize(nlev);
        std::vector<BoxArray> bas;
        std::vector<DistributionMapping> dms;
        for (std::size_t l = 0; l < nlev; ++l) {
            bas.push_back(states[l]->boxArray());
            dms.push_back(states[l]->distributionMap());
            m_g[l].define(bas[l], dms[l], 3, 0);
        }
        if (m_type == GravityType::Poisson) {
            for (std::size_t l = 0; l < nlev; ++l) {
                m_phi[l].define(bas[l], dms[l], 1, 1);
                m_phi[l].setVal(0.0);
            }
            CompositeMgOptions opt;
            opt.rtol = 1.0e-10;
            opt.nranks = dms[0].numRanks();
            m_cmg = std::make_unique<CompositeMg>(
                std::vector<Geometry>(geoms.begin(), geoms.begin() + nlev),
                std::move(bas), std::move(dms), ref_ratio, MgBC::Dirichlet, opt);
        }
        m_dirty = false;
    }
    if (m_type == GravityType::Monopole) {
        solveMonopole(geoms[0], *states[0]);
        return;
    }

    // rhs[lev] = 4 pi G rho on each level's own layout.
    std::vector<MultiFab> rhs(nlev);
    std::vector<MultiFab*> phi_ptrs(nlev);
    std::vector<const MultiFab*> rhs_ptrs(nlev);
    for (std::size_t l = 0; l < nlev; ++l) {
        rhs[l].define(states[l]->boxArray(), states[l]->distributionMap(), 1, 0);
        for (std::size_t f = 0; f < rhs[l].size(); ++f) {
            auto r = rhs[l].array(static_cast<int>(f));
            auto u = states[l]->const_array(static_cast<int>(f));
            ParallelFor(rhs[l].box(static_cast<int>(f)), [=](int i, int j, int k) {
                r(i, j, k) = 4.0 * constants::pi * constants::G_newton *
                             u(i, j, k, StateLayout::URHO);
            });
        }
        phi_ptrs[l] = &m_phi[l];
        rhs_ptrs[l] = &rhs[l];
    }

    const CompositeMgResult res = m_cmg->solve(phi_ptrs, rhs_ptrs);
    m_totals.vcycles += res.all_vcycles;
    m_totals.fmg_cycles += res.fmg_cycles;
    m_totals.sweeps += res.sweeps;
    m_totals.agg_copies += res.agg_copies;
    m_totals.agg_bytes += res.agg_bytes;

    // Ghosts for the gradient stencil: same-level exchange, coarse-fine
    // interpolation, physical BC.
    m_cmg->fillCompositeGhosts(phi_ptrs);
    for (std::size_t l = 0; l < nlev; ++l) {
        computeGravityAccel(m_phi[l], m_g[l], geoms[l]);
    }
}

void Gravity::solveMonopole(const Geometry& geom, const MultiFab& state) {
    // Radial mass histogram about the domain center.
    const std::array<Real, 3> center = {0.5 * (geom.probLo(0) + geom.probHi(0)),
                                        0.5 * (geom.probLo(1) + geom.probHi(1)),
                                        0.5 * (geom.probLo(2) + geom.probHi(2))};
    const Real dx = geom.cellSize(0);
    const Real rmax =
        0.5 * std::sqrt(3.0) *
        std::max({geom.probHi(0) - geom.probLo(0),
                  geom.probHi(1) - geom.probLo(1),
                  geom.probHi(2) - geom.probLo(2)});
    const int nbins = std::max(16, geom.domain().length(0));
    const Real dr = rmax / nbins;
    std::vector<Real> mass(nbins, 0.0);

    const Real vol = geom.cellVolume();
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.const_array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real x = geom.cellCenter(0, i) - center[0];
                    const Real y = geom.cellCenter(1, j) - center[1];
                    const Real z = geom.cellCenter(2, k) - center[2];
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
    for (std::size_t f = 0; f < m_g[0].size(); ++f) {
        auto g = m_g[0].array(static_cast<int>(f));
        ParallelFor(KernelInfo{"grav_monopole", 40.0, 48.0, 48, 1.0},
                    m_g[0].box(static_cast<int>(f)), [=](int i, int j, int k) {
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

void Gravity::addSource(int lev, MultiFab& state, Real dt) const {
    if (m_type == GravityType::None) return;
    applyGravitySource(state, m_g[lev], dt);
}

} // namespace exa::castro
