#pragma once

#include "castro/castro.hpp"

#include <memory>
#include <vector>

namespace exa::castro {

// A cold hydrostatic white-dwarf model: rho(r) from integrating
// dP/dr = -G m rho / r^2 with the degenerate (HelmLite) EOS at a fixed
// low temperature. The paper's collision setup uses two equal such stars.
struct WdProfile {
    std::vector<Real> r;   // shell radii [cm]
    std::vector<Real> rho; // density at r [g/cm^3]
    Real radius = 0.0;     // surface radius [cm]
    Real mass = 0.0;       // total mass [g]
    Real rho_c = 0.0;
    Real T_iso = 0.0;

    // Linear interpolation of the density profile (0 outside the star).
    Real rhoAt(Real rr) const;
};

// Integrate hydrostatic equilibrium outward from the center.
WdProfile buildWdProfile(const Eos& eos, const ReactionNetwork& net, Real rho_c,
                         Real T_iso, const std::vector<Real>& X, int nshells = 4000);

// Section V's head-on collision: two equal white dwarfs on the x axis,
// initial center separation = separation_in_diameters stellar diameters,
// approaching at +-approach_velocity. Domain is a cube of width
// domain_width centered on the collision point.
struct WdCollisionParams {
    int ncell = 32;
    int max_grid_size = 16;
    int nranks = 1;
    Real rho_c = 5.0e6;        // central density [g/cm^3]
    Real T_star = 1.0e7;       // isothermal star temperature [K]
    Real separation_in_diameters = 2.0;
    Real approach_velocity = 2.0e8; // cm/s toward each other (each star)
    Real domain_width = 2.0e10;     // cm
    Real ambient_rho = 1.0e-3;
    Real ambient_T = 1.0e7;
    Real cfl = 0.4;
    GravityType gravity = GravityType::Monopole;
    bool do_react = true;
    Real ignition_T = 4.0e9; // the paper's detonation-imminent threshold
    // Reaction network, selected by registry name (the paper's run uses
    // the 13-isotope alpha chain). Used by the by-name build() overload;
    // ignored when a network object is passed explicitly.
    std::string network = "aprox13";

    // Canonical entry points (the ensemble ScenarioRegistry constructs
    // these by name "wd-collision" from a generic ScenarioConfig).
    // build(net) uses the caller's network; build() constructs the
    // network from the registry by `network` — any registered name is a
    // valid WD-collision scenario (unknown names throw, listing the
    // registry) — and the returned WdCollision owns it.
    struct WdCollision build(const ReactionNetwork& net) const;
    struct WdCollision build() const;
};

struct WdCollision {
    // Registry-built network, when the by-name factory was used. Declared
    // before `castro`, which holds a reference into it, so it is
    // destroyed after.
    std::unique_ptr<ReactionNetwork> network;
    std::unique_ptr<Castro> castro;
    WdProfile profile;
    WdCollisionParams params;

    // Advance until max T reaches params.ignition_T or t_max elapses.
    // Returns the ignition time (< 0 if not reached).
    Real runToIgnition(Real t_max, int max_steps = 100000);
};

} // namespace exa::castro
