// E12 — cost-driven dynamic load balancing on a WD-collision-like
// skewed-burn decomposition.
//
// The paper's Section V science run concentrates VODE burn work in the
// thin reacting interface between the two stars: a handful of boxes cost
// 10-100x the rest, and the zone-count mapping that was fine for uniform
// hydro leaves most ranks idle while one rank burns. This bench builds
// exactly that shape — a 64^3 domain chopped into 16^3 boxes with the
// low-corner octant carrying 20x burn work — feeds the measured per-box
// costs through the CostMonitor -> Rebalancer -> MultiFab::Redistribute
// pipeline on 8 simulated ranks, and reports:
//
//   * modeled per-step time (max-over-ranks cost) under the zone-count
//     SFC cold start vs. the cost-driven knapsack mapping the Rebalancer
//     migrated to (target: >= 25% reduction);
//   * the migration's one-time cost — real payload bytes from the
//     CommLedger priced by the Summit-like NetworkModel — amortized over
//     a 100-step window (target: < 5% of the un-rebalanced step time);
//   * the uniform-cost control: the trigger must never fire and the
//     mapping must stay bit-identical to the cold start.
//
// A real-driver coda runs the MAESTRO reacting bubble (burn localized in
// the rising bubble) with the subsystem live to show the trigger firing
// on measured burn work, not injected weights.

#include "bench_util.hpp"
#include "comm/ledger.hpp"
#include "comm/network.hpp"
#include "maestro/maestro.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/rebalancer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

using namespace exa;

namespace {

// Per-zone burn-step cost used to convert work units to modeled seconds:
// a stiff VODE RHS+Jacobian evaluation per zone per step, Summit-era GPU.
constexpr double kSecondsPerUnit = 2.0e-6;

double maxRankSeconds(const std::vector<double>& cost,
                      const DistributionMapping& dm) {
    const auto per = dm.costPerRank(cost);
    return *std::max_element(per.begin(), per.end()) * kSecondsPerUnit;
}

} // namespace

int main() {
    benchutil::printHeader(
        "E12: cost-driven load balancing on a skewed-burn decomposition");

    // --- the skewed-burn chop -------------------------------------------
    const int nx = 64, box = 16, nranks = 8, ncomp = 10;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(box);
    const DistributionMapping cold(ba, nranks); // zone-count SFC cold start

    // Burn interface toward the low corner: octant boxes cost 20x.
    const double skew = 20.0;
    std::vector<double> work(ba.size());
    std::size_t hot = 0;
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box& b = ba[i];
        const bool corner =
            b.bigEnd(0) < nx / 2 && b.bigEnd(1) < nx / 2 && b.bigEnd(2) < nx / 2;
        work[i] = static_cast<double>(b.numPts()) * (corner ? skew : 1.0);
        if (corner) ++hot;
    }
    std::printf("\n%zu boxes of %d^3 on %d ranks; %zu corner boxes at %.0fx "
                "burn cost\n",
                ba.size(), box, nranks, hot, skew);

    // --- live migration through the real pipeline -----------------------
    MultiFab state(ba, cold, ncomp, 4);
    state.setVal(1.0);

    CommLedger ledger;
    ledger.attach();

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 2;
    opt.min_interval = 4;
    opt.imbalance_trigger = 1.5;
    opt.hydro_zone_work = 0.0; // work[] already holds each box's whole cost
    Rebalancer reb(opt);
    reb.noteRegrid(0, ba.size());

    const int nsteps = 40;
    RebalanceDecision fired;
    int fired_step = -1;
    int performed = 0;
    for (int s = 0; s < nsteps; ++s) {
        for (std::size_t f = 0; f < ba.size(); ++f)
            reb.monitor().addWork(0, static_cast<int>(f), work[f]);
        const auto d = reb.step(0, s, {&state});
        if (d.performed) {
            ++performed;
            if (fired_step < 0) {
                fired = d;
                fired_step = s;
            }
        }
    }
    const DistributionMapping& balanced = state.distributionMap();

    const double t_before = maxRankSeconds(work, cold);
    const double t_after = maxRankSeconds(work, balanced);
    const double cut = 100.0 * (1.0 - t_after / t_before);

    std::printf("\nRebalancer: fired %d time(s), first at step %d\n", performed,
                fired_step);
    std::printf("  %s\n", fired.reason.c_str());
    std::printf("\nmodeled per-step busiest-rank time (%.1f us/zone-unit):\n",
                kSecondsPerUnit * 1.0e6);
    std::printf("  zone-count SFC cold start : %8.2f ms  (imbalance %.2f)\n",
                t_before * 1.0e3, DistributionMapping::imbalance(work, cold));
    std::printf("  cost-driven knapsack      : %8.2f ms  (imbalance %.2f)\n",
                t_after * 1.0e3, DistributionMapping::imbalance(work, balanced));
    std::printf("  per-step reduction        : %8.1f %%  (target >= 25%%)\n", cut);

    // --- migration overhead, priced by the network model ----------------
    RankLayout layout;
    layout.nodes = 2;
    layout.ranks_per_node = 4; // 8 ranks across 2 nodes
    NetworkModel net;
    const double t_migrate = ledger.phaseTime(layout, net);
    const int window = 100; // steps between WD-collision regrid/shape changes
    const double overhead = 100.0 * t_migrate / (window * t_before);
    std::printf("\nmigration (one-time, %lld boxes / %.2f MB off-rank):\n",
                static_cast<long long>(ledger.migrationBoxesMoved()),
                static_cast<double>(ledger.migrationBytes()) / 1.0e6);
    std::printf("  modeled phase time        : %8.3f ms  (2 nodes x 4 ranks)\n",
                t_migrate * 1.0e3);
    std::printf("  amortized over %d steps  : %8.2f %%  of un-rebalanced step "
                "time (target < 5%%)\n",
                window, overhead);
    ledger.detach();

    const bool ok_cut = cut >= 25.0;
    const bool ok_overhead = overhead < 5.0;
    const bool ok_once = performed == 1; // hysteresis + min_interval hold after

    // --- uniform-cost control -------------------------------------------
    MultiFab ustate(ba, cold, ncomp, 4);
    ustate.setVal(1.0);
    Rebalancer ureb(opt);
    ureb.noteRegrid(0, ba.size());
    for (int s = 0; s < nsteps; ++s) {
        for (std::size_t f = 0; f < ba.size(); ++f)
            ureb.monitor().addWork(0, static_cast<int>(f),
                                   static_cast<double>(ba[f].numPts()));
        ureb.step(0, s, {&ustate});
    }
    const bool ok_uniform = ureb.stats().rebalances == 0 &&
                            ustate.distributionMap().ranks() == cold.ranks();
    std::printf("\nuniform-cost control: %lld rebalances, mapping %s the cold "
                "start\n",
                static_cast<long long>(ureb.stats().rebalances),
                ok_uniform ? "identical to" : "DIVERGED from");

    // --- real-driver coda: measured burn skew in MAESTRO ----------------
    benchutil::printHeader("Real driver: reacting bubble with live rebalancing");
    {
        auto bubble_net = makeIgnitionSimple();
        maestro::BubbleParams p;
        p.ncell = 32;
        p.max_grid_size = 8; // 64 boxes; the bubble spans a few of them
        p.nranks = 8;
        p.rebalance.enabled = true;
        p.rebalance.warmup_steps = 2;
        p.rebalance.min_interval = 4;
        p.rebalance.imbalance_trigger = 1.2;
        auto m = p.build(bubble_net);
        const Real dt = m->estimateDt();
        for (int s = 0; s < 8; ++s) m->step(dt);
        const auto& st = m->rebalancer().stats();
        const auto cost = m->rebalancer().monitor().costs(0);
        std::printf("\n8 steps of the 32^3 bubble on 8 ranks (burn localized "
                    "in the bubble):\n");
        std::printf("  measured work imbalance now: %.2f\n",
                    DistributionMapping::imbalance(
                        cost, m->state().distributionMap()));
        std::printf("  rebalances: %lld, boxes moved: %lld, payload: %.2f MB\n",
                    static_cast<long long>(st.rebalances),
                    static_cast<long long>(st.boxes_moved),
                    static_cast<double>(st.bytes_moved) / 1.0e6);
    }

    std::printf("\n%s\n", (ok_cut && ok_overhead && ok_once && ok_uniform)
                              ? "E12 PASS: >=25% step cut, <5% migration "
                                "overhead, single rebalance, uniform control "
                                "untouched"
                              : "E12 FAIL");
    return (ok_cut && ok_overhead && ok_once && ok_uniform) ? 0 : 1;
}
