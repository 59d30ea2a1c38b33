#pragma once

// Cost-driven dynamic load balancing.
//
// The Rebalancer closes the loop the CostMonitor opens: once the modeled
// per-rank imbalance of a level crosses a threshold, it builds a
// cost-weighted knapsack DistributionMapping and migrates every
// registered MultiFab to it in place via MultiFab::Redistribute — cached
// ParallelCopy plans, CommLedger-accounted migration traffic, a fresh
// mapping id so stale plans lapse. The cost is the monitor's modeled
// work and the strategy is fixed, so every mapping a run migrates to is a
// pure function of its inputs.
//
// Trigger policy (all must hold):
//   * enabled, and the level has at least `warmup_steps` committed cost
//     samples;
//   * at least `min_interval` steps since this level last rebalanced;
//   * measured max/mean cost imbalance >= imbalance_trigger;
//   * the candidate mapping's predicted imbalance is at most
//     kHysteresis * measured — a mapping must buy a real improvement
//     before we pay migration traffic for it;
//   * never while a StepGuard::advance() is on the calling thread's
//     stack: migrating between a snapshot and its possible restore would
//     desynchronize the rollback point. Under Backend::Debug this is diagnosed as a
//     "rebalance-during-retry" violation; it is skipped on every backend.
//
// Under Backend::Debug a performed migration is also verified: every
// registered MultiFab is snapshotted before and bit-compared after, so a
// corrupted migration (see the migration-payload-corrupt fault site)
// fails loudly instead of polluting the run.

#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/cost_monitor.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace exa {

struct RebalanceOptions {
    bool enabled = false;
    double imbalance_trigger = 1.5; // measured max/mean that arms a rebalance
    int min_interval = 4;           // steps between rebalances of one level
    int warmup_steps = 2;           // committed cost samples before first trigger
    // Model work units per zone of non-burn (hydro/MHD) cost, added to
    // every box by step() before it commits, so burn-free boxes keep a
    // realistic floor.
    double hydro_zone_work = 1.0;
};

// What Rebalancer::step decided and did, for logging and tests.
struct RebalanceDecision {
    bool performed = false;
    double measured_imbalance = 1.0;  // under the pre-step mapping
    double predicted_imbalance = 1.0; // under the candidate (if built)
    std::int64_t boxes_moved = 0;     // ownership changes, summed over fabs
    std::int64_t bytes_moved = 0;     // off-rank migration payload
    std::string reason;               // why skipped, or a performed summary
};

class Rebalancer {
public:
    // A candidate's predicted imbalance must be at most kHysteresis times
    // the measured one.
    static constexpr double kHysteresis = 0.9;

    Rebalancer() = default;
    explicit Rebalancer(const RebalanceOptions& opt) : m_opt(opt) {}

    const RebalanceOptions& options() const { return m_opt; }
    CostMonitor& monitor() { return m_monitor; }
    const CostMonitor& monitor() const { return m_monitor; }

    // End-of-step hook: add the hydro work floor to every box of `lev`,
    // commit the step's cost samples, then evaluate the trigger policy
    // and — if it fires — migrate every fab in `fabs` (all sharing one
    // BoxArray and DistributionMapping; the first is the canonical layout)
    // to the cost-weighted mapping. The fabs' own distributionMap() is the
    // post-call source of truth.
    RebalanceDecision step(int lev, std::int64_t step_index,
                           const std::vector<MultiFab*>& fabs);

    // A regrid rebuilt level `lev` with `nboxes` boxes: drop its cost
    // history (the new boxes are strangers to the old measurements) and
    // let the zone-count mapping from the regrid be the cold-start.
    void noteRegrid(int lev, std::size_t nboxes);

    struct Stats {
        std::int64_t rebalances = 0;
        std::int64_t boxes_moved = 0;
        std::int64_t bytes_moved = 0;
    };
    const Stats& stats() const { return m_stats; }

private:
    RebalanceOptions m_opt;
    CostMonitor m_monitor;
    Stats m_stats;
    std::vector<std::int64_t> m_last_step; // per level; min()-sentinel = never
};

} // namespace exa
