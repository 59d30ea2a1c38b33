// Cost-driven load balancing: weighted DistributionMapping builders,
// CostMonitor accounting, the Rebalancer trigger policy, live MultiFab
// migration (bit-exact on every backend, CommLedger-accounted), the
// StepGuard interaction, the migration-payload-corrupt fault site, and
// driver-level on/off equivalence for Castro and Maestro.
#include "castro/react.hpp"
#include "castro/sedov.hpp"
#include "comm/ledger.hpp"
#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "ensemble/scenario.hpp"
#include "maestro/maestro.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "mesh/rebalance/rebalancer.hpp"
#include "mesh/step_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

using namespace exa;

namespace {

BoxArray makeChoppedBa(int ncell, int max_size) {
    BoxArray ba(Box({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1}));
    ba.maxSize(max_size);
    return ba;
}

Real pattern(int i, int j, int k, int n) {
    return std::sin(0.37 * i + 0.11 * j) + 0.21 * k + 1.7 * n;
}

// Fill valid + ghost zones with a position-determined pattern so a
// migration that loses or shuffles any zone is visible.
MultiFab makeFilled(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                    int ngrow) {
    MultiFab mf(ba, dm, ncomp, ngrow);
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.array(static_cast<int>(b));
        const Box gb = mf.fabbox(static_cast<int>(b));
        for (int n = 0; n < ncomp; ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                        a(i, j, k, n) = pattern(i, j, k, n);
    }
    return mf;
}

// Bitwise equality over valid + ghost zones.
void expectIdentical(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.nComp(), b.nComp());
    ASSERT_EQ(a.nGrow(), b.nGrow());
    for (std::size_t fb = 0; fb < a.size(); ++fb) {
        auto aa = a.const_array(static_cast<int>(fb));
        auto bb = b.const_array(static_cast<int>(fb));
        const Box gb = a.fabbox(static_cast<int>(fb));
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                        ASSERT_EQ(aa(i, j, k, n), bb(i, j, k, n))
                            << "fab " << fb << " @ " << i << ' ' << j << ' ' << k
                            << " comp " << n;
    }
}

// Per-box weights skewed toward one corner octant of the domain, the
// WD-collision burn-interface shape: every box inside the low octant costs
// `skew` times a uniform baseline. The Morton walk groups that octant onto
// one rank, so the zone-count SFC cold start is maximally wrong here.
std::vector<double> cornerSkewedCost(const BoxArray& ba, double skew) {
    const Box mb = ba.minimalBox();
    const IntVect mid{(mb.smallEnd(0) + mb.bigEnd(0)) / 2,
                      (mb.smallEnd(1) + mb.bigEnd(1)) / 2,
                      (mb.smallEnd(2) + mb.bigEnd(2)) / 2};
    std::vector<double> cost(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box& b = ba[i];
        const bool corner = b.bigEnd(0) <= mid.x && b.bigEnd(1) <= mid.y &&
                            b.bigEnd(2) <= mid.z;
        cost[i] = static_cast<double>(b.numPts()) * (corner ? skew : 1.0);
    }
    return cost;
}

} // namespace

// --- weighted DistributionMapping builders -------------------------------

TEST(WeightedMapping, EqualWeightsReproduceZoneCountMapping) {
    const BoxArray ba = makeChoppedBa(32, 8); // 64 boxes
    std::vector<double> cost(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i)
        cost[i] = static_cast<double>(ba[i].numPts());

    using S = DistributionMapping::Strategy;
    for (S strat : {S::RoundRobin, S::Sfc, S::Knapsack}) {
        const DistributionMapping plain(ba, 6, strat);
        const DistributionMapping weighted(ba, 6, cost, strat);
        EXPECT_EQ(plain.ranks(), weighted.ranks())
            << "strategy " << static_cast<int>(strat);
        EXPECT_NE(plain.id(), weighted.id()); // distinct builds, distinct ids
    }
}

TEST(WeightedMapping, KnapsackBoundOnRandomSkewedWeights) {
    const BoxArray ba = makeChoppedBa(32, 8);
    std::mt19937 rng(12345);
    std::lognormal_distribution<double> heavy(0.0, 1.5);
    std::vector<double> cost(ba.size());
    for (double& c : cost) c = 1.0 + heavy(rng);
    cost[3] *= 50.0; // a couple of burn-interface outliers
    cost[40] *= 80.0;

    const int nranks = 8;
    const DistributionMapping dm(ba, nranks, cost,
                                 DistributionMapping::Strategy::Knapsack);
    const auto per = dm.costPerRank(cost);
    ASSERT_EQ(per.size(), static_cast<std::size_t>(nranks));
    const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
    const double wmax = *std::max_element(cost.begin(), cost.end());
    const double maxr = *std::max_element(per.begin(), per.end());
    // Greedy largest-first list scheduling: makespan <= mean + wmax.
    EXPECT_LE(maxr, total / nranks + wmax + 1.0e-9);
    EXPECT_NEAR(std::accumulate(per.begin(), per.end(), 0.0), total, 1.0e-9);
}

TEST(WeightedMapping, SfcChunksContiguousAlongCurveAndBounded) {
    const BoxArray ba = makeChoppedBa(32, 8);
    const std::vector<double> cost = cornerSkewedCost(ba, 20.0);
    const int nranks = 8;
    const DistributionMapping dm(ba, nranks, cost,
                                 DistributionMapping::Strategy::Sfc);

    // Reconstruct the Morton walk the builder uses (centers shifted by the
    // minimal box) and require ranks to be non-decreasing along it: the
    // cost-weighted SFC must still hand out contiguous, locality-
    // preserving chunks.
    const Box mb = ba.minimalBox();
    std::vector<std::size_t> order(ba.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::uint64_t> code(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box& b = ba[i];
        code[i] = mortonCode((b.smallEnd(0) + b.bigEnd(0)) / 2 - mb.smallEnd(0),
                             (b.smallEnd(1) + b.bigEnd(1)) / 2 - mb.smallEnd(1),
                             (b.smallEnd(2) + b.bigEnd(2)) / 2 - mb.smallEnd(2));
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return code[a] < code[b]; });
    int prev = 0;
    for (std::size_t idx : order) {
        EXPECT_GE(dm[idx], prev);
        prev = dm[idx];
    }

    const auto per = dm.costPerRank(cost);
    const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
    const double wmax = *std::max_element(cost.begin(), cost.end());
    const double maxr = *std::max_element(per.begin(), per.end());
    EXPECT_LE(maxr, total / nranks + wmax + 1.0e-9);
}

TEST(WeightedMapping, ImbalanceAndDescribeBalance) {
    const BoxArray ba = makeChoppedBa(16, 8); // 8 boxes
    const DistributionMapping dm(ba, 4);
    // Zone-count overload delegates to the cost-weighted one.
    std::vector<double> zones(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i)
        zones[i] = static_cast<double>(ba[i].numPts());
    EXPECT_DOUBLE_EQ(DistributionMapping::imbalance(ba, dm),
                     DistributionMapping::imbalance(zones, dm));
    // 8 equal boxes on 4 ranks: perfectly balanced.
    EXPECT_DOUBLE_EQ(DistributionMapping::imbalance(zones, dm), 1.0);

    // One rank holding everything: imbalance = nranks.
    std::vector<double> uniform(ba.size(), 1.0);
    std::vector<double> lopsided(ba.size(), 0.0);
    lopsided[0] = 1.0;
    const DistributionMapping knap(ba, 4, uniform,
                                   DistributionMapping::Strategy::Knapsack);
    std::vector<double> one_rank_cost(ba.size(), 0.0);
    for (std::size_t i = 0; i < ba.size(); ++i)
        one_rank_cost[i] = knap[i] == 0 ? 1.0 : 0.0;
    EXPECT_DOUBLE_EQ(DistributionMapping::imbalance(one_rank_cost, knap), 4.0);

    const std::string rep = DistributionMapping::describeBalance(uniform, knap);
    EXPECT_NE(rep.find("max/mean"), std::string::npos);
    EXPECT_NE(rep.find("r0="), std::string::npos);
    // Mismatched sizes degrade gracefully.
    EXPECT_EQ(DistributionMapping::describeBalance({}, knap),
              "balance: (no cost data)");
}

// --- CostMonitor ---------------------------------------------------------

TEST(CostMonitor, EmaSmoothingSeedsThenBlends) {
    ASSERT_EQ(CostMonitor::kEmaAlpha, 0.7);
    CostMonitor mon;
    mon.resetLevel(0, 2);

    EXPECT_TRUE(mon.costs(0).empty()); // nothing committed yet
    EXPECT_EQ(mon.committedSteps(0), 0);

    mon.addWork(0, 0, 10.0);
    mon.addWork(0, 1, 2.0);
    mon.commitStep(0);
    auto c = mon.costs(0);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_DOUBLE_EQ(c[0], 10.0); // first commit seeds the EMA
    EXPECT_DOUBLE_EQ(c[1], 2.0);

    // A silent step decays toward zero at rate (1 - alpha).
    mon.commitStep(0);
    c = mon.costs(0);
    EXPECT_DOUBLE_EQ(c[0], 3.0);
    EXPECT_DOUBLE_EQ(c[1], 0.6);
    EXPECT_EQ(mon.committedSteps(0), 2);

    // Reset forgets everything (regrid: old boxes mean nothing).
    mon.resetLevel(0, 4);
    EXPECT_EQ(mon.committedSteps(0), 0);
    EXPECT_TRUE(mon.costs(0).empty());
}

TEST(CostMonitor, OutOfRangeFeedsGrowAndLevelsAutoCreate) {
    CostMonitor mon;
    mon.addWork(2, 5, 7.0); // never resetLevel'd: must not crash
    mon.commitStep(2);
    const auto c = mon.costs(2);
    ASSERT_EQ(c.size(), 6u);
    EXPECT_DOUBLE_EQ(c[5], 7.0);
}

// --- MultiFab::Redistribute ----------------------------------------------

class RebalanceBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(RebalanceBackends, RedistributePreservesBitsAndRetargetsOwnership) {
    ScopedBackend backend(GetParam());
    const BoxArray ba = makeChoppedBa(16, 8); // 8 boxes
    const DistributionMapping dm(ba, 4);
    MultiFab mf = makeFilled(ba, dm, 3, 2);
    const MultiFab ref = makeFilled(ba, dm, 3, 2);

    // Migrate to a deliberately different mapping (reversed rank table).
    std::vector<double> cost(ba.size(), 1.0);
    cost[0] = 100.0;
    const DistributionMapping target(ba, 4, cost,
                                     DistributionMapping::Strategy::Knapsack);
    ASSERT_NE(target.ranks(), dm.ranks());

    std::int64_t expect_moved = 0;
    for (std::size_t i = 0; i < ba.size(); ++i)
        if (target[i] != dm[i]) ++expect_moved;

    const auto st = mf.Redistribute(target);
    EXPECT_EQ(st.boxes_moved, expect_moved);
    EXPECT_GT(st.bytes, 0);
    EXPECT_EQ(mf.distributionMap().id(), target.id());
    expectIdentical(mf, ref); // valid + ghost zones bit-identical

    // Same rank table again: a no-op that keeps the mapping id (cached
    // communication plans stay warm).
    const auto old_id = mf.distributionMap().id();
    const auto st2 = mf.Redistribute(target);
    EXPECT_EQ(st2.boxes_moved, 0);
    EXPECT_EQ(st2.bytes, 0);
    EXPECT_EQ(mf.distributionMap().id(), old_id);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RebalanceBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                             switch (info.param) {
                             case Backend::Serial: return "Serial";
                             case Backend::OpenMP: return "OpenMP";
                             case Backend::SimGpu: return "SimGpu";
                             case Backend::Debug: return "Debug";
                             }
                             return "Unknown";
                         });

// --- Rebalancer trigger policy -------------------------------------------

TEST(Rebalancer, UniformCostNeverTriggersAndMappingIsUntouched) {
    const BoxArray ba = makeChoppedBa(32, 8);
    const DistributionMapping dm(ba, 8);
    MultiFab state = makeFilled(ba, dm, 2, 1);

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 1;
    opt.min_interval = 1;
    opt.hydro_zone_work = 0.0; // the test feeds each box's whole cost
    Rebalancer reb(opt);
    reb.noteRegrid(0, ba.size());

    const auto id0 = state.distributionMap().id();
    for (int s = 0; s < 10; ++s) {
        for (std::size_t f = 0; f < ba.size(); ++f)
            reb.monitor().addWork(0, static_cast<int>(f),
                                  static_cast<double>(ba[f].numPts()));
        const auto d = reb.step(0, s, {&state});
        EXPECT_FALSE(d.performed) << "step " << s << ": " << d.reason;
        EXPECT_DOUBLE_EQ(d.measured_imbalance, 1.0);
    }
    EXPECT_EQ(reb.stats().rebalances, 0);
    EXPECT_EQ(state.distributionMap().id(), id0);
}

TEST(Rebalancer, CornerSkewTriggersMigratesAndAccountsInLedger) {
    const BoxArray ba = makeChoppedBa(32, 8);
    const DistributionMapping dm(ba, 8); // zone-count SFC cold start
    MultiFab state = makeFilled(ba, dm, 4, 2);
    MultiFab aux = makeFilled(ba, dm, 1, 0);
    const MultiFab ref_state = makeFilled(ba, dm, 4, 2);
    const MultiFab ref_aux = makeFilled(ba, dm, 1, 0);

    CommLedger ledger;
    ledger.attach();

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 2;
    opt.min_interval = 4;
    opt.imbalance_trigger = 1.5;
    opt.hydro_zone_work = 0.0; // the test feeds each box's whole cost
    Rebalancer reb(opt);
    reb.noteRegrid(0, ba.size());

    const std::vector<double> cost = cornerSkewedCost(ba, 10.0);
    auto feed = [&] {
        for (std::size_t f = 0; f < ba.size(); ++f)
            reb.monitor().addWork(0, static_cast<int>(f), cost[f]);
    };

    feed();
    auto d = reb.step(0, 0, {&state, &aux});
    EXPECT_FALSE(d.performed) << d.reason; // warming up (1 committed sample)

    feed();
    d = reb.step(0, 1, {&state, &aux});
    ASSERT_TRUE(d.performed) << d.reason;
    EXPECT_GE(d.measured_imbalance, opt.imbalance_trigger);
    EXPECT_LT(d.predicted_imbalance, d.measured_imbalance * Rebalancer::kHysteresis);
    EXPECT_GT(d.boxes_moved, 0);
    EXPECT_GT(d.bytes_moved, 0);

    // Both registered fabs migrated to the same mapping, data intact.
    EXPECT_EQ(state.distributionMap().id(), aux.distributionMap().id());
    expectIdentical(state, ref_state);
    expectIdentical(aux, ref_aux);
    // The candidate really fixed the balance.
    EXPECT_LT(DistributionMapping::imbalance(cost, state.distributionMap()),
              DistributionMapping::imbalance(cost, dm));

    // CommLedger saw the migration: event counters and tagged bytes agree
    // with the decision.
    EXPECT_EQ(ledger.rebalancesPerformed(), 1);
    EXPECT_EQ(ledger.migrationBytes(), d.bytes_moved);
    EXPECT_EQ(ledger.migrationBoxesMoved(), d.boxes_moved);
    EXPECT_EQ(ledger.bytesWithTag("rebalance"), d.bytes_moved);

    // Within min_interval the trigger is held even under fresh skew.
    feed();
    d = reb.step(0, 2, {&state, &aux});
    EXPECT_FALSE(d.performed);
    EXPECT_EQ(d.reason, "min-interval hold");

    // After the hold expires the (now balanced) mapping stays put.
    for (std::int64_t s = 3; s < 8; ++s) {
        feed();
        d = reb.step(0, s, {&state, &aux});
        EXPECT_FALSE(d.performed) << "step " << s << ": " << d.reason;
    }
    EXPECT_EQ(reb.stats().rebalances, 1);
    ledger.detach();
}

TEST(Rebalancer, SkippedDuringStepGuardRetryAndDiagnosedUnderDebug) {
    const BoxArray ba = makeChoppedBa(16, 8);
    const DistributionMapping dm(ba, 4);
    MultiFab state = makeFilled(ba, dm, 1, 0);

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 0;
    opt.imbalance_trigger = 1.01;
    opt.hydro_zone_work = 0.0; // the test banks each box's whole cost
    Rebalancer reb(opt);
    reb.noteRegrid(0, ba.size());
    // Bank a skew so the trigger would certainly fire outside the guard:
    // everything rank 0 owns is expensive (a spread-out candidate halves
    // the makespan, so hysteresis cannot hold it back).
    for (std::size_t f = 0; f < ba.size(); ++f)
        reb.monitor().addWork(0, static_cast<int>(f),
                              dm[f] == 0 ? 1000.0 : 1.0);

    StepGuardOptions gopt;
    gopt.enabled = true;
    StepGuard guard(gopt);

    for (Backend b : {Backend::Serial, Backend::Debug}) {
        ScopedBackend backend(b);
        debug::ScopedViolationTrap trap;
        debug::clearViolations();
        RebalanceDecision inner;
        guard.advance(
            1.0, {&state}, [&](Real, int) { inner = reb.step(0, 100, {&state}); },
            [&] { return ValidationReport{}; },
            [&](const StateSnapshot&, bool) {});
        EXPECT_FALSE(inner.performed);
        EXPECT_EQ(inner.reason, "rebalance-during-retry");
        if (b == Backend::Debug) {
            ASSERT_GE(debug::violationCount(), 1u);
            EXPECT_EQ(debug::violations().back().kind, "rebalance-during-retry");
        } else {
            EXPECT_EQ(debug::violationCount(), 0u);
        }
        debug::clearViolations();
    }
    EXPECT_EQ(reb.stats().rebalances, 0);

    // Outside the guard the banked skew fires normally.
    const auto d = reb.step(0, 101, {&state});
    EXPECT_TRUE(d.performed) << d.reason;
}

TEST(Rebalancer, AnotherThreadsGuardedStepDoesNotHoldItBack) {
    // Two ensemble tenants on two workers: tenant A parks inside a guarded
    // advance until tenant B's Rebalancer::step has returned. The retry
    // scope is A's alone, so B must not be skipped as mid-retry.
    const BoxArray ba = makeChoppedBa(16, 8);
    const DistributionMapping dm(ba, 4);
    MultiFab state_a = makeFilled(ba, dm, 1, 0);
    MultiFab state_b = makeFilled(ba, dm, 1, 0);

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 0;
    Rebalancer reb_b(opt);
    reb_b.noteRegrid(0, ba.size());

    StepGuardOptions gopt;
    gopt.enabled = true;
    StepGuard guard_a(gopt);

    std::promise<void> a_inside;
    std::promise<void> b_returned;
    std::thread tenant_a([&] {
        guard_a.advance(
            1.0, {&state_a},
            [&](Real, int) {
                a_inside.set_value();
                b_returned.get_future().wait();
            },
            [] { return ValidationReport{}; }, [](const StateSnapshot&, bool) {});
    });
    RebalanceDecision d;
    std::thread tenant_b([&] {
        a_inside.get_future().wait();
        d = reb_b.step(0, 0, {&state_b});
        b_returned.set_value();
    });
    tenant_b.join();
    tenant_a.join();
    EXPECT_NE(d.reason, "rebalance-during-retry");
    EXPECT_EQ(guard_a.stats().steps_guarded, 1);
}

// --- fault injection: migration-payload-corrupt --------------------------

TEST(RebalanceFault, CorruptMigrationIsCaughtByCheckFinite) {
    const BoxArray ba = makeChoppedBa(16, 8);
    const DistributionMapping dm(ba, 4);
    MultiFab mf = makeFilled(ba, dm, 2, 1);

    std::vector<double> cost(ba.size(), 1.0);
    cost[0] = 100.0;
    const DistributionMapping target(ba, 4, cost,
                                     DistributionMapping::Strategy::Knapsack);
    ASSERT_NE(target.ranks(), dm.ranks());

    fault::ScopedFault inject(fault::Site::MigrationPayloadCorrupt);
    const auto st = mf.Redistribute(target);
    ASSERT_GT(st.boxes_moved, 0);

    // The StepGuard validator building block sees the poisoned payload.
    ValidationReport rep;
    checkFinite(mf, rep, "migrated state");
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.issues.front().check, "non-finite");
}

TEST(RebalanceFault, CorruptMigrationIsCaughtByDebugBackendVerify) {
    ScopedBackend backend(Backend::Debug);
    debug::ScopedViolationTrap trap;
    debug::clearViolations();

    const BoxArray ba = makeChoppedBa(32, 8);
    const DistributionMapping dm(ba, 8);
    MultiFab state = makeFilled(ba, dm, 2, 1);

    RebalanceOptions opt;
    opt.enabled = true;
    opt.warmup_steps = 1;
    opt.min_interval = 1;
    opt.hydro_zone_work = 0.0; // the test feeds each box's whole cost
    Rebalancer reb(opt);
    reb.noteRegrid(0, ba.size());
    const std::vector<double> cost = cornerSkewedCost(ba, 100.0);
    for (std::size_t f = 0; f < ba.size(); ++f)
        reb.monitor().addWork(0, static_cast<int>(f), cost[f]);

    fault::ScopedFault inject(fault::Site::MigrationPayloadCorrupt);
    const auto d = reb.step(0, 0, {&state});
    ASSERT_TRUE(d.performed) << d.reason;

    bool found = false;
    for (const auto& v : debug::violations())
        if (v.kind == "migration-data-corruption") found = true;
    EXPECT_TRUE(found)
        << "Debug-backend bit-identity verify missed the poisoned payload";
    debug::clearViolations();
}

// --- driver-level equivalence and wiring ---------------------------------

TEST(RebalanceDrivers, CastroGuardedStepIdenticalWithUniformCostRebalancing) {
    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.guard.enabled = true;

    auto run = [&](bool rebalance) {
        castro::SedovParams q = p;
        q.rebalance.enabled = rebalance;
        q.rebalance.warmup_steps = 1;
        q.rebalance.min_interval = 1;
        auto c = q.build(net);
        const Real dt = c->estimateDt();
        for (int s = 0; s < 3; ++s) c->step(dt);
        return c;
    };
    auto off = run(false);
    auto on = run(true);
    // Near-uniform cost: the trigger must never fire, and the physics must
    // be bit-identical with the subsystem enabled.
    EXPECT_EQ(on->rebalancer().stats().rebalances, 0);
    expectIdentical(off->state(), on->state());
}

TEST(RebalanceDrivers, MaestroAdvanceIdenticalWithUniformCostRebalancing) {
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.do_react = false;

    auto run = [&](bool rebalance) {
        maestro::BubbleParams q = p;
        q.rebalance.enabled = rebalance;
        q.rebalance.warmup_steps = 1;
        q.rebalance.min_interval = 1;
        auto m = q.build(net);
        const Real dt = m->estimateDt();
        for (int s = 0; s < 2; ++s) m->step(dt);
        return m;
    };
    auto off = run(false);
    auto on = run(true);
    EXPECT_EQ(on->rebalancer().stats().rebalances, 0);
    expectIdentical(off->state(), on->state());
}

TEST(RebalanceDrivers, CastroInjectedSkewTriggersMigrationAndPreservesState) {
    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;

    auto run = [&](bool skew) {
        castro::SedovParams q = p;
        q.rebalance.enabled = true;
        q.rebalance.warmup_steps = 1;
        q.rebalance.min_interval = 1;
        q.rebalance.imbalance_trigger = 1.3;
        auto c = q.build(net);
        // Pretend the boxes rank 0 starts with host a burn interface:
        // inject model work on top of the driver's own accounting. Once
        // they migrate apart the skew stays attached to the boxes, so the
        // trigger fires once and then rests.
        std::vector<int> hot;
        const DistributionMapping dm0 = c->state().distributionMap();
        for (std::size_t f = 0; f < dm0.size(); ++f)
            if (dm0[f] == 0) hot.push_back(static_cast<int>(f));
        const Real dt = c->estimateDt();
        for (int s = 0; s < 3; ++s) {
            if (skew)
                for (int f : hot) c->rebalancer().monitor().addWork(0, f, 1.0e7);
            c->step(dt);
        }
        return c;
    };
    auto plain = run(false);
    auto skewed = run(true);
    // The injected skew must actually migrate...
    EXPECT_GE(skewed->rebalancer().stats().rebalances, 1);
    EXPECT_GT(skewed->rebalancer().stats().bytes_moved, 0);
    // ...while leaving the physics bit-identical: migration moves data,
    // never changes it, and the simulated-rank loops are rank-agnostic.
    expectIdentical(plain->state(), skewed->state());
}

TEST(RebalanceDrivers, MaestroInjectedSkewMigratesAllCoupledFabs) {
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.do_react = false;
    p.rebalance.enabled = true;
    p.rebalance.warmup_steps = 1;
    p.rebalance.min_interval = 1;
    p.rebalance.imbalance_trigger = 1.3;

    auto m = p.build(net);
    const auto id0 = m->state().distributionMap().id();
    std::vector<int> hot;
    const DistributionMapping dm0 = m->state().distributionMap();
    for (std::size_t f = 0; f < dm0.size(); ++f)
        if (dm0[f] == 0) hot.push_back(static_cast<int>(f));
    const Real dt = m->estimateDt();
    for (int s = 0; s < 3; ++s) {
        for (int f : hot) m->rebalancer().monitor().addWork(0, f, 1.0e7);
        m->step(dt);
    }
    ASSERT_GE(m->rebalancer().stats().rebalances, 1);
    EXPECT_NE(m->state().distributionMap().id(), id0);
    // The projection fabs (phi, divU) ride along on the same mapping; a
    // projection on the migrated layout must still close the loop.
    m->project();
    EXPECT_TRUE(std::isfinite(m->maxAbsDivergence()));
}

// --- migration determinism on a real burn-skewed run ---------------------

namespace {

// Everything a rebalancing run decides: each RebalanceEvent as (step,
// level, boxes moved, bytes), the final rank table, and the state's CRC.
struct MigrationTrace {
    std::vector<std::array<std::int64_t, 4>> events;
    std::vector<int> ranks;
    std::uint32_t crc = 0;
};

// The reacting bubble with live rebalancing (E12's coda at a toy size):
// the burn is localized in the bubble, so its boxes carry the
// integrator-step skew that the trigger fires on (no injected weights).
// The burn ignites late at this size; the migration comes at step 6 and
// the last step runs on the migrated layout.
MigrationTrace runBurnSkewedBubble(Backend backend) {
    ScopedBackend scoped(backend);
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 8;
    p.max_grid_size = 4; // 8 boxes on 4 ranks
    p.nranks = 4;
    p.rebalance.enabled = true;
    p.rebalance.warmup_steps = 2;
    p.rebalance.min_interval = 4;
    p.rebalance.imbalance_trigger = 1.2;
    auto m = p.build(net);

    MigrationTrace trace;
    EventSubscription sub =
        events::subscribe<RebalanceEvent>([&](const RebalanceEvent& e) {
            trace.events.push_back({m->stepCount(), e.level, e.boxes_moved, e.bytes});
        });
    const Real dt = m->estimateDt();
    for (int s = 0; s < 7; ++s) m->step(dt);
    sub.reset();
    trace.ranks = m->state().distributionMap().ranks();
    trace.crc = ensemble::stateCrc(m->state());
    return trace;
}

void expectSameTrace(const MigrationTrace& a, const MigrationTrace& b) {
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.ranks, b.ranks);
    EXPECT_EQ(a.crc, b.crc);
}

} // namespace

TEST(RebalanceDeterminism, BurnSkewedMigrationsReplayExactly) {
    const MigrationTrace serial = runBurnSkewedBubble(Backend::Serial);
    ASSERT_GE(serial.events.size(), 1u) << "the bubble's burn skew never migrated";
    for (const auto& e : serial.events) {
        EXPECT_GT(e[2], 0) << "step " << e[0];
        EXPECT_GT(e[3], 0) << "step " << e[0];
    }
    {
        SCOPED_TRACE("Serial rerun");
        expectSameTrace(serial, runBurnSkewedBubble(Backend::Serial));
    }
    const MigrationTrace omp = runBurnSkewedBubble(Backend::OpenMP);
    {
        SCOPED_TRACE("OpenMP vs Serial");
        expectSameTrace(serial, omp);
    }
    {
        SCOPED_TRACE("OpenMP rerun");
        expectSameTrace(omp, runBurnSkewedBubble(Backend::OpenMP));
    }
}

// --- Metric calibration on a real burn-dominated workload ----------------

TEST(CostMonitor, BurningFabDominatesABurnDominatedSkew) {
    // One fab carries every burning zone, the rest are inert. The
    // integrator steps burnGrid credits must make the burning fab cost
    // more than twice any other, so the balancer sees the burn interface.
    auto net = makeNetworkByName("iso7");
    Eos eos{HelmLiteEos{}};
    const int ncell = 16;
    BoxArray ba = makeChoppedBa(ncell, 8);
    DistributionMapping dm(ba, 1);
    MultiFab state(ba, dm, castro::StateLayout(net.nspec()).ncomp(), 0);

    std::vector<Real> X(net.nspec(), 0.0);
    X[net.speciesIndex("c12")] = 0.5;
    X[net.speciesIndex("o16")] = 0.5;
    int hot_fab = -1;
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto u = state.array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        const bool hot = vb.contains(0, 0, 0); // one burning fab
        if (hot) hot_fab = static_cast<int>(f);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real rho = 1.0e7;
                    u(i, j, k, castro::StateLayout::URHO) = rho;
                    u(i, j, k, castro::StateLayout::UTEMP) = hot ? 9.0e8 : 3.0e7;
                    for (int n = 0; n < net.nspec(); ++n)
                        u(i, j, k, castro::StateLayout::UFS + n) = rho * X[n];
                    u(i, j, k, castro::StateLayout::UEDEN) = rho * 1.0e17;
                }
    }
    ASSERT_GE(hot_fab, 0);

    CostMonitor mon;
    castro::reactState(state, net, eos, 1.0e-6, castro::ReactOptions{}, &mon, 0);
    mon.commitStep(0);
    const auto c = mon.costs(0);
    ASSERT_EQ(c.size(), state.size());
    for (std::size_t f = 0; f < c.size(); ++f) {
        if (static_cast<int>(f) == hot_fab) continue;
        EXPECT_GT(c[hot_fab], 2.0 * c[f]) << "fab " << f;
    }
}
