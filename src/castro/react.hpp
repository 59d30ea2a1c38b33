#pragma once

#include "castro/state.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/cost_monitor.hpp"
#include "microphysics/batch_burner.hpp"
#include "microphysics/burner.hpp"

namespace exa::castro {

// Options for the grid-level burn driver.
struct ReactOptions {
    OdeOptions ode;
    Real T_min = 5.0e7;   // zones cooler than this are skipped (inert)
    Real rho_min = 1.0e2; // zones more dilute than this are skipped
    // Batched GPU-resident engine: gather all reacting zones of the
    // MultiFab (across fabs) into one flat SoA buffer, sort by stiffness,
    // and burn in fused device batches (BatchBurner) instead of
    // zone-at-a-time per-fab launches. Bit-identical results; radically
    // fewer, better-shaped launches. The Section VI hybrid split (stiff
    // tail on the host) lives in `batch`.
    bool batched = false;
    BatchBurnOptions batch;
};

// Burn every (eligible) zone of the state for dt at constant volume,
// updating species, energy, and temperature. Reports per-grid cost
// statistics and notifies the simulated device of the launch with a
// KernelInfo reflecting the network size (register pressure) and the
// measured zone-to-zone work imbalance.
//
// When `cost` is non-null, each fab's integrator-step total and wall time
// are credited to (level, fab) — the burn channel of the load balancer's
// CostMonitor.
//
// When `report` is non-null and opt.batched is set, it receives what the
// batched engine did on this call (gather size, batch count, tail split);
// it is left untouched on the per-zone path. The sink is caller-owned, so
// concurrent burns (ensemble tenants on worker threads) never share it.
BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt = ReactOptions{},
                         CostMonitor* cost = nullptr, int level = 0,
                         BatchBurnReport* report = nullptr);

} // namespace exa::castro
