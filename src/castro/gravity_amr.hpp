#pragma once

#include "castro/gravity.hpp"
#include "mesh/comm_hooks.hpp"
#include "mesh/multifab.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace exa::castro {

// Composite-grid self-gravity for CastroAmr: one FAS FMG solve of
// lap(phi) = 4 pi G rho couples every AMR level (CompositeMg), instead of
// per-level solves stitched by interpolation. The potential is solved
// once per coarse step and the resulting acceleration applied as an
// operator-split source at every level advance within that step.
//
// The solver captures the hierarchy's layouts at construction; CastroAmr
// calls noteRegrid() whenever a regrid, rebalance, or restore changes
// them, and the next solve() rebuilds. Solves are cold (initial guess 0),
// so the potential is a pure function of the density field — gravity is
// bit-identical across regrids, rebalances, and rank-failure replay.
class AmrGravity {
public:
    explicit AmrGravity(MgBC bc = MgBC::Dirichlet,
                        const CompositeMgOptions& opt = {});

    // Solve across levels 0..n-1 of the hierarchy. geoms/states are the
    // live level geometries and conserved states; ref_ratio the uniform
    // fine/coarse ratio. Rebuilds the composite solver if the layouts
    // changed since the last call.
    void solve(const std::vector<Geometry>& geoms,
               const std::vector<const MultiFab*>& states, int ref_ratio);

    // Per-level acceleration (3 components, state layout) from the last
    // solve. Valid until the next regrid.
    const MultiFab& accel(int lev) const { return m_g[lev]; }
    const MultiFab& phi(int lev) const { return m_phi[lev]; }
    int numLevels() const { return static_cast<int>(m_g.size()); }

    // Operator-split gravity source on level lev's state over dt.
    void addSource(int lev, MultiFab& state, Real dt) const;

    // The hierarchy's layouts changed (regrid / rebalance / restore):
    // rebuild the composite solver on the next solve.
    void noteRegrid() { m_dirty = true; }

    // Recovery hook: solves are cold, so nothing seeds the next solve —
    // this just drops any stale potential so a restored run cannot read
    // it by accident.
    void resetPoissonWarmStart();

    // Lifetime MG counters, accumulated across solver rebuilds.
    MgEvent totals() const;
    const CompositeMgResult& lastResult() const { return m_last; }

private:
    MgBC m_bc;
    CompositeMgOptions m_opt;
    bool m_dirty = true;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> m_layout_ids;
    std::unique_ptr<CompositeMg> m_cmg;
    std::vector<MultiFab> m_phi; // 1 ghost zone (gradient stencil)
    std::vector<MultiFab> m_g;   // acceleration, 3 components
    CompositeMgResult m_last;
    CompositeMgStats m_totals;
};

} // namespace exa::castro
