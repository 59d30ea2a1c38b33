#pragma once

#include "castro/state.hpp"
#include "mesh/comm_hooks.hpp"
#include "mesh/multifab.hpp"
#include "microphysics/network.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <array>
#include <memory>
#include <string>

namespace exa::castro {

// Self-gravity for Castro-mini. Two solvers, as in Castro:
//   * Monopole: spherically averaged mass profile about a center;
//     g(r) = -G M(<r) / r^2. Cheap, exact for spherical stars; used for
//     the early (free-fall) phase sanity checks.
//   * Poisson: lap(phi) = 4 pi G rho with homogeneous Dirichlet boundaries
//     (the domain is assumed to extend well beyond the mass), solved by
//     the composite-grid FMG solver (CompositeMg) — the "global linear
//     solve similar to [the multigrid solve], though a little easier" of
//     Section V. On the single-level driver the hierarchy is one AMR rung
//     plus the geometric ladder below; CastroAmr couples every AMR level
//     into one solve (AmrGravity).
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

class Gravity {
public:
    Gravity(GravityType type, const Geometry& geom, int nspec);

    // Recompute the acceleration field (3 components) from the state.
    void solve(const MultiFab& state);

    const MultiFab& accel() const { return m_g; }

    // Apply the gravitational source over dt: momentum and energy.
    void addSource(MultiFab& state, Real dt) const;

    // Center for the monopole solver (defaults to the domain center).
    void setCenter(const std::array<Real, 3>& c) { m_center = c; }

    // V-cycles of the last Poisson solve (performance accounting).
    int lastVcycles() const { return m_last_vcycles; }

    // Lifetime MG counters of the Poisson solver (zeros for the other
    // gravity types); feeds the supervisor / ensemble summaries.
    MgEvent mgTotals() const;

    // The fabs living on the state's layout that must migrate with it
    // when the load balancer redistributes (empty until the first solve
    // defines them). Poisson solves are cold, so phi is a pure function
    // of the density and none of these fabs carries trajectory state.
    std::vector<MultiFab*> rebalanceFabs();

    GravityType type() const { return m_type; }

private:
    void solveMonopole(const MultiFab& state);
    void solvePoisson(const MultiFab& state);

    GravityType m_type;
    Geometry m_geom;
    MultiFab m_g;   // acceleration, 3 components, on the state's BoxArray
    MultiFab m_phi; // potential (Poisson only)
    std::unique_ptr<CompositeMg> m_cmg; // Poisson; rebuilt on layout change
    std::uint64_t m_cmg_ba_id = 0;
    std::uint64_t m_cmg_dm_id = 0;
    std::array<Real, 3> m_center;
    int m_last_vcycles = 0;
    bool m_defined = false;
};

} // namespace exa::castro
