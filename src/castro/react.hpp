#pragma once

#include "castro/state.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/cost_monitor.hpp"
#include "microphysics/batch_burner.hpp"
#include "microphysics/burner.hpp"

#include <functional>

namespace exa::castro {

// Options for the grid burn driver (Castro's and MAESTRO's).
struct ReactOptions {
    OdeOptions ode;
    Real T_min = 5.0e7;   // zones cooler than this are skipped (inert)
    Real rho_min = 1.0e2; // zones more dilute than this are skipped
    // How the gathered zones burn: batch size, stiffness sort, and the
    // Section VI hybrid split (stiff tail on the host). One launch per
    // fab in traversal order is batch_size = zones per fab with the sort
    // and the tail off.
    BatchBurnOptions batch;
};

// How one state layout hands a zone to the burn driver and takes it back.
// Both callables run inside the driver's per-fab gather and scatter
// launches (concurrently under OpenMP), so each may touch only zone
// (i, j, k) of the fab it is given.
struct BurnZoneIO {
    // Returns the zone's density; sets its temperature and its nspec mass
    // fractions X, clamped to [0, 1].
    std::function<Real(const Array4<const Real>& u, int i, int j, int k, Real& T,
                       Real* X)>
        load;
    // Writes a successful burn back: the density load returned, and the
    // final temperature, mass fractions, and specific nuclear energy.
    std::function<void(const Array4<Real>& u, int i, int j, int k, Real rho, Real T,
                       const Real* X, Real e_nuc)>
        store;
};

// The grid burn driver: burn every eligible zone of the state for dt at
// constant density. Zones below opt.T_min or opt.rho_min are skipped (one
// step each, state untouched). The rest are loaded in traversal order
// (fab, then k/j/i) into one flat SoA gather with one launch per fab,
// burned by burnBatch under opt.batch, and scattered back with one
// launch per fab; a failed zone is not written back. Bookkeeping follows
// traversal order whatever order the batches burn in: first_failure names
// the traversal-first failing zone, a failure counts steps + 1 and leaves
// max_steps alone, a success counts max(steps, 1). Throws
// std::invalid_argument for a network wider than kMaxStackSpec.
//
// When `cost` is non-null, each fab's integrator steps are credited to
// (level, fab) of the monitor.
//
// When `report` is non-null it receives what burnBatch did on this call
// (gather size, batch count, tail split). The sink is caller-owned, so
// concurrent burns (ensemble tenants on worker threads) never share it.
BurnGridStats burnGrid(MultiFab& state, const BurnZoneIO& io,
                       const ReactionNetwork& net, const Eos& eos, Real dt,
                       const ReactOptions& opt, CostMonitor* cost = nullptr,
                       int level = 0, BatchBurnReport* report = nullptr);

// burnGrid on the Castro state: partial densities rho*X in UFS.., and
// rho*e_nuc added to UEDEN.
BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt = ReactOptions{},
                         CostMonitor* cost = nullptr, int level = 0,
                         BatchBurnReport* report = nullptr);

} // namespace exa::castro
