#pragma once

// Per-box, per-level modeled cost for the load balancer.
//
// The paper's WD-collision problem concentrates VODE burn work in a thin
// reacting interface: a handful of boxes cost 10-100x the rest, and a
// zone-count DistributionMapping leaves most ranks idle. The CostMonitor
// records where the work goes, one number per box per step, in model
// units fed by the fab loops themselves: burn integrator steps per box
// (the per-zone `zone_steps` BurnGridStats already counts) plus the
// Rebalancer's zones-proportional hydro floor. The units are exactly
// reproducible across runs, hosts and backends, so the mapping a run
// migrates to never depends on the clock, and uniform work never
// triggers a rebalance.
//
// Each step's sums are folded into an exponential moving average with
// weight kEmaAlpha on the newest step, so one costly step (a retried
// burn) does not thrash the mapping.

#include <cstddef>
#include <vector>

namespace exa {

class CostMonitor {
public:
    // EMA weight of the newest step: ema = kEmaAlpha*current +
    // (1-kEmaAlpha)*ema.
    static constexpr double kEmaAlpha = 0.7;

    // Forget level `lev` and size its accumulators for `nboxes` boxes
    // (called at level creation and after every regrid: costs measured on
    // the old BoxArray mean nothing on the new one).
    void resetLevel(int lev, std::size_t nboxes);

    // Accumulate into the current (uncommitted) step. Out-of-range fab
    // indices grow the accumulators, so feeding before the first
    // resetLevel is harmless.
    void addWork(int lev, int fab, double units);

    // Fold the current step's sums into the EMA and start a new step.
    void commitStep(int lev);
    int committedSteps(int lev) const;

    // The smoothed per-box cost; empty until the first commit, and
    // all-positive (a floor of one work unit per box keeps empty boxes
    // from degenerating the knapsack).
    std::vector<double> costs(int lev) const;

private:
    struct Level {
        std::vector<double> work; // current step sums
        std::vector<double> ema;  // smoothed history
        int committed = 0;
    };

    Level& level(int lev);
    const Level* levelIfPresent(int lev) const;

    std::vector<Level> m_levels;
};

} // namespace exa
