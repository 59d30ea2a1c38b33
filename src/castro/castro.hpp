#pragma once

#include "castro/gravity.hpp"
#include "castro/hydro.hpp"
#include "castro/react.hpp"
#include "mesh/phys_bc.hpp"
#include "mesh/rebalance/rebalancer.hpp"
#include "mesh/step_guard.hpp"

#include <functional>
#include <memory>

namespace exa::castro {

struct CastroOptions {
    Real cfl = 0.4;
    DomainBC bc = DomainBC::allOutflow();
    GravityType gravity = GravityType::None;
    // Also fixes the state's ghost width: stencilWidth(reconstruction).
    Reconstruction reconstruction = Reconstruction::PLM;
    bool do_react = false;
    ReactOptions react;
    Real small_dens = 1.0e-12;
    // Step retry: snapshot / validate / rollback-with-dt-backoff around
    // every step (Castro's use_retry analogue). Off by default.
    StepGuardOptions guard;
    // Cost-driven load balancing: measure per-box burn/hydro cost and
    // migrate state to a cost-weighted mapping when the imbalance
    // warrants it. Off by default.
    RebalanceOptions rebalance;
};

// The single-level Castro-mini driver: compressible reacting
// hydrodynamics with self-gravity, advanced by Strang splitting
// (half-burn, hydro+gravity, half-burn) and a two-stage SSP-RK2
// method-of-lines hydro update.
class Castro {
public:
    Castro(const Geometry& geom, const BoxArray& ba, const DistributionMapping& dm,
           const ReactionNetwork& net, const Eos& eos, const CastroOptions& opt);

    MultiFab& state() { return m_state; }
    const MultiFab& state() const { return m_state; }
    // The resolved options this driver runs with (factories like
    // WdCollisionParams::build flip burn/rebalance defaults; tests read
    // them back here).
    const CastroOptions& options() const { return m_opt; }
    const Geometry& geom() const { return m_geom; }
    const ReactionNetwork& network() const { return m_net; }
    const Eos& eos() const { return m_eos; }

    // Initialize from a per-zone functor f(x, y, z) -> EosState + velocity
    // + mass fractions. The functor fills rho, T (or e/p via the EOS
    // before returning), velocity and X.
    struct InitialZone {
        Real rho = 1.0;
        Real T = 1.0;
        Real p = -1.0; // if >= 0, p is used instead of T
        std::array<Real, 3> vel{0, 0, 0};
        std::vector<Real> X;
    };
    using InitFn = std::function<InitialZone(Real x, Real y, Real z)>;
    void initialize(const InitFn& f);

    Real estimateDt() const;
    // Advance one step; returns burn statistics (zeros when reactions are
    // off). With opt.guard.enabled the step runs under the StepGuard
    // retry loop: an invalid post-step state is rolled back and
    // re-advanced as 2, 4, ... substeps; a guarded step still advances
    // time by exactly dt and counts as one step.
    BurnGridStats step(Real dt);

    Real time() const { return m_time; }
    int stepCount() const { return m_nstep; }

    // Restore path (resilience): rewind the clock to a checkpoint's time
    // and step count after the state fab has been restored. Replaying
    // steps from here is deterministic, so a recovered run is
    // bit-identical to an uninterrupted one.
    void resetTime(Real t, int nstep) {
        m_time = t;
        m_nstep = nstep;
    }

    // Retry accounting for the guarded steps of this run (zeros when the
    // guard is disabled).
    const RetryStats& retryStats() const { return m_guard.stats(); }

    // Diagnostics.
    Real totalMass() const;
    std::array<Real, 3> totalMomentum() const;
    Real totalEnergy() const;
    Real maxTemperature() const;
    Real maxDensity() const;
    // Location of the hottest zone (zone centers, physical coordinates).
    std::array<Real, 3> hottestZone() const;

    // The paper's numerical-stability diagnostic (Section V): minimum over
    // hot zones of (burning timescale) / (zonal sound-crossing time). A
    // value < 1 means zone-scale numerical runaway cannot be excluded.
    Real minBurnTimescaleRatio(Real T_threshold = 1.0e9) const;

    Gravity& gravity() { return m_gravity; }

    // Load-balancer access (cost monitor, decision stats) for tests and
    // benches.
    Rebalancer& rebalancer() { return m_rebalancer; }
    const Rebalancer& rebalancer() const { return m_rebalancer; }

    // Fill state ghosts: exchange + physical BCs.
    void fillGhosts(MultiFab& s);

private:
    // The physical-boundary half of fillGhosts (domain BCs with odd
    // momentum reflection); runs after the halo delivery in both the
    // fused and the split-phase step.
    void applyPhysBC(MultiFab& s);
    // Returns the wall seconds spent in the RHS compute sweeps (the
    // stageRhs timings summed), for the cost monitor.
    double hydroAdvance(Real dt);
    // One RK-stage RHS: ghost fill + molRhs, split-phase (interior sweep
    // overlapping the halo exchange) when comm::asyncHalo() is on.
    // Returns wall seconds of the compute sweeps alone — the ghost
    // exchange and physical-BC work are excluded, so the cost monitor's
    // Time channel sees hydro compute, not comm waits.
    double stageRhs(MultiFab& s, MultiFab& dudt);
    // One unguarded advance of size dt (the pre-guard step body); does not
    // touch m_time/m_nstep.
    BurnGridStats advanceOnce(Real dt);
    // Zones-proportional attribution of the hydro compute time to the
    // cost monitor (the hydro loops are MultiFab-wide, so per-fab timers
    // would only bracket the same proportional split). `seconds` must be
    // compute-sweep time only: crediting whole-step wall time would book
    // fill/halo waits — comm, not hydro — as per-box hydro cost and skew
    // Time-metric rebalancing toward boxes that wait the longest.
    void creditHydroTime(double seconds);
    // End-of-step rebalance hook: feed the hydro work channel, then let
    // the Rebalancer commit this step's costs and decide.
    void maybeRebalance();

    Geometry m_geom;
    const ReactionNetwork& m_net;
    Eos m_eos;
    CastroOptions m_opt;
    StateLayout m_layout;
    MultiFab m_state;
    Gravity m_gravity;
    StepGuard m_guard;
    Rebalancer m_rebalancer;
    Real m_time = 0.0;
    int m_nstep = 0;
};

} // namespace exa::castro
