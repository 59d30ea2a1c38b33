#pragma once

#include "castro/castro.hpp"

#include <memory>

namespace exa::castro {

// The Sedov-Taylor blast wave (Section IV-A): energy E deposited in a
// small region of a cold uniform medium drives a self-similar spherical
// shock, R(t) = (E t^2 / (alpha rho0))^(1/5). The standard performance
// benchmark for Castro-class codes.
//
// The params struct IS the problem config: build() is the canonical
// entry point, and the ensemble layer's ScenarioRegistry constructs
// these by name ("sedov") from a generic key=value ScenarioConfig.
struct SedovParams {
    int ncell = 32;          // zones per dimension
    int max_grid_size = 16;  // box chop
    int nranks = 1;
    Real rho0 = 1.0;         // ambient density
    Real p0 = 1.0e-5;        // ambient pressure (cold)
    Real E = 1.0;            // deposited energy
    Real r_init = 0.0;       // deposit radius; 0 -> 2 zone widths
    Real gamma = 1.4;
    Real cfl = 0.4;
    StepGuardOptions guard;  // step retry (off by default)
    RebalanceOptions rebalance; // cost-driven load balancing (off by default)

    // Build a gamma-law Castro instance initialized with the blast.
    std::unique_ptr<Castro> build(const ReactionNetwork& net) const;
};

// Self-similar shock radius R(t) = (E t^2 / (alpha rho0))^(1/5) with the
// standard alpha(gamma = 1.4) = 0.851 similarity constant.
Real sedovShockRadius(Real t, Real E, Real rho0, Real gamma = 1.4);

// Measured shock radius: the radius (about the domain center) of the
// outermost zone whose density exceeds (1 + jump_frac) * rho0.
Real measureShockRadius(const Castro& c, Real rho0, Real jump_frac = 0.1);

} // namespace exa::castro
