#pragma once

#include "castro/state.hpp"
#include "mesh/comm_hooks.hpp"
#include "mesh/multifab.hpp"
#include "microphysics/network.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <memory>
#include <string>
#include <vector>

namespace exa::castro {

// Self-gravity for Castro-mini. Two solvers, as in Castro:
//   * Monopole: spherically averaged mass profile about the domain
//     center; g(r) = -G M(<r) / r^2. Cheap, exact for spherical stars;
//     used for the early (free-fall) phase sanity checks. One level only.
//   * Poisson: lap(phi) = 4 pi G rho with homogeneous Dirichlet boundaries
//     (the domain is assumed to extend well beyond the mass), solved by
//     the composite-grid FMG solver (CompositeMg) — the "global linear
//     solve similar to [the multigrid solve], though a little easier" of
//     Section V. One solve couples every AMR level; a single-level run is
//     one AMR rung plus the geometric ladder below.
enum class GravityType { None, Monopole, Poisson };

// Parse a config-file gravity name: "none", "monopole", "poisson". The
// older spelling "poisson-amr" names the same solver. Throws
// std::invalid_argument otherwise.
GravityType gravityTypeFromName(const std::string& name);

// g = -grad(phi) by central differences on phi's valid region. Ghost
// zones of phi must be current (same-level exchange + coarse-fine
// interpolation where applicable); at physical boundaries the stencil
// goes one-sided with phi -> 0 outside (far-field Dirichlet).
void computeGravityAccel(const MultiFab& phi, MultiFab& g, const Geometry& geom);

// Operator-split momentum + trapezoidal energy source over dt from a
// 3-component acceleration field on the state's layout.
void applyGravitySource(MultiFab& state, const MultiFab& g, Real dt);

// The Castro driver's gravity: the potential or monopole field is solved
// once per coarse step and the resulting acceleration applied as an
// operator-split source at every level advance within that step.
//
// The fabs and the Poisson solver capture the hierarchy's layouts; the
// driver calls noteRegrid() whenever a regrid, rebalance, or restore
// changes them, and the next solve() rebuilds. Solves are cold (initial
// guess 0), so the field is a pure function of the density — gravity is
// bit-identical across regrids, rebalances, and rank-failure replay.
class Gravity {
public:
    explicit Gravity(GravityType type);

    // Recompute the acceleration of levels 0..n-1 from their conserved
    // states (geoms: the level geometries; ref_ratio: the uniform
    // fine/coarse ratio). Monopole reads level 0 only.
    void solve(const std::vector<Geometry>& geoms,
               const std::vector<const MultiFab*>& states, int ref_ratio);

    // Acceleration of level lev (3 components, on the state's layout)
    // from the last solve. Valid until the next layout change.
    const MultiFab& accel(int lev) const { return m_g[lev]; }

    // Operator-split gravity source on level lev's state over dt:
    // momentum and energy.
    void addSource(int lev, MultiFab& state, Real dt) const;

    // The hierarchy's layouts changed (regrid / rebalance / restore):
    // rebuild the fabs and the solver on the next solve.
    void noteRegrid() { m_dirty = true; }

    // Lifetime MG counters of the Poisson solves (zeros for the other
    // gravity types), accumulated across rebuilds; feeds the supervisor /
    // ensemble summaries.
    MgEvent mgTotals() const { return m_totals; }

private:
    void solveMonopole(const Geometry& geom, const MultiFab& state);

    GravityType m_type;
    bool m_dirty = true;
    std::unique_ptr<CompositeMg> m_cmg; // Poisson only
    std::vector<MultiFab> m_phi;        // Poisson; 1 ghost (gradient stencil)
    std::vector<MultiFab> m_g;          // acceleration, 3 components
    MgEvent m_totals;
};

} // namespace exa::castro
