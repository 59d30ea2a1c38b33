// The grid burn driver (burnGrid / reactState) must be bit-identical to a
// per-zone burnZone reference loop on every backend — state, stats,
// skipped zones, failure attribution, and the CostMonitor work channel —
// for both state layouts it serves: Castro's partial densities, and
// MAESTRO-style mass fractions with the density supplied by the caller.
// It must also route the stiff tail and survive fault injection with the
// traversal-order first-failure semantics. Plus the WD-collision driver
// defaults.
#include "castro/react.hpp"

#include "castro/state.hpp"
#include "castro/wd_collision.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "mesh/multifab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

// The two state layouts the driver serves.
enum class Layout {
    PartialDensity, // Castro: rho in URHO, rho*X in UFS.., energy in UEDEN
    MassFraction,   // MAESTRO-style: T in comp 0, X in comps 1.., rho derived
};
const Layout kLayouts[] = {Layout::PartialDensity, Layout::MassFraction};

const char* layoutName(Layout l) {
    return l == Layout::PartialDensity ? "partial-density" : "mass-fraction";
}

// The caller-supplied density of the mass-fraction layout: depends on the
// zone's height and composition, as MAESTRO's rhoOf(k, T, X) does.
Real massFractionRho(int k, const Real* X, int ic12) {
    return 1.0e7 * (1.0 + 0.02 * k) / (0.5 + X[ic12]);
}

// Zone access of each layout, written independently of the driver's own
// Castro load/store so the reference checks reactState too.
BurnZoneIO zoneIO(Layout layout, const ReactionNetwork& net) {
    const int nspec = net.nspec();
    BurnZoneIO io;
    if (layout == Layout::PartialDensity) {
        io.load = [nspec](const Array4<const Real>& u, int i, int j, int k, Real& T,
                          Real* X) {
            const Real rho = u(i, j, k, StateLayout::URHO);
            T = u(i, j, k, StateLayout::UTEMP);
            for (int n = 0; n < nspec; ++n) {
                X[n] = std::clamp(u(i, j, k, StateLayout::UFS + n) / rho, Real(0),
                                  Real(1));
            }
            return rho;
        };
        io.store = [nspec](const Array4<Real>& u, int i, int j, int k, Real rho,
                           Real T, const Real* X, Real e_nuc) {
            for (int n = 0; n < nspec; ++n) {
                u(i, j, k, StateLayout::UFS + n) = rho * X[n];
            }
            u(i, j, k, StateLayout::UEDEN) += rho * e_nuc;
            u(i, j, k, StateLayout::UTEMP) = T;
        };
    } else {
        const int ic12 = net.speciesIndex("c12");
        io.load = [nspec, ic12](const Array4<const Real>& u, int i, int j, int k,
                                Real& T, Real* X) {
            T = u(i, j, k, 0);
            for (int n = 0; n < nspec; ++n) {
                X[n] = std::clamp(u(i, j, k, 1 + n), Real(0), Real(1));
            }
            return massFractionRho(k, X, ic12);
        };
        io.store = [nspec](const Array4<Real>& u, int i, int j, int k, Real, Real T,
                           const Real* X, Real) {
            u(i, j, k, 0) = T;
            for (int n = 0; n < nspec; ++n) u(i, j, k, 1 + n) = X[n];
        };
    }
    return io;
}

int layoutNcomp(Layout layout, int nspec) {
    return layout == Layout::PartialDensity ? StateLayout(nspec).ncomp() : 1 + nspec;
}

// A small WD-collision-like stiffness distribution: a cold (skipped)
// slab, a warm quiescent bulk, a hot interface plane, and two igniting
// zones in different fabs.
struct Workload {
    Layout layout;
    BoxArray ba;
    DistributionMapping dm;
    MultiFab state;
    int nspec;

    explicit Workload(const ReactionNetwork& net,
                      Layout layout_in = Layout::PartialDensity, int ncell = 16,
                      int max_grid = 8)
        : layout(layout_in), ba(makeBa(ncell, max_grid)), dm(ba, 1),
          state(ba, dm, layoutNcomp(layout_in, net.nspec()), 0), nspec(net.nspec()) {
        std::vector<Real> X(nspec, 0.0);
        X[net.speciesIndex("c12")] = 0.5;
        X[net.speciesIndex("o16")] = 0.5;
        const int mid = ncell / 2;
        for (std::size_t f = 0; f < state.size(); ++f) {
            auto u = state.array(static_cast<int>(f));
            const Box& vb = state.box(static_cast<int>(f));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        const Real rho = 1.0e7;
                        Real T;
                        if (i < ncell / 4) {
                            T = 3.0e7; // below T_min: skipped
                        } else if (i == mid) {
                            const bool hot = (j == 4 && k == 4) ||
                                             (j == ncell - 4 && k == ncell - 4);
                            T = hot ? 2.5e9 : 6.0e8;
                        } else {
                            T = 1.5e8;
                        }
                        if (layout == Layout::MassFraction) {
                            u(i, j, k, 0) = T;
                            for (int n = 0; n < nspec; ++n) u(i, j, k, 1 + n) = X[n];
                            continue;
                        }
                        u(i, j, k, StateLayout::URHO) = rho;
                        u(i, j, k, StateLayout::UTEMP) = T;
                        for (int n = 0; n < nspec; ++n)
                            u(i, j, k, StateLayout::UFS + n) = rho * X[n];
                        u(i, j, k, StateLayout::UEDEN) = rho * 1.0e17;
                    }
        }
    }

    static BoxArray makeBa(int ncell, int max_grid) {
        BoxArray ba(Box({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1}));
        ba.maxSize(max_grid);
        return ba;
    }

    MultiFab copy() const {
        MultiFab out(ba, dm, state.nComp(), state.nGrow());
        MultiFab::Copy(out, state, 0, 0, state.nComp(), 0);
        return out;
    }
};

// The layout's burn through the driver: reactState for Castro's layout,
// burnGrid with the caller's load/store for the mass-fraction layout.
BurnGridStats burnDriver(const Workload& w, MultiFab& s, const ReactionNetwork& net,
                         const Eos& eos, Real dt, const ReactOptions& opt,
                         CostMonitor* cost = nullptr,
                         BatchBurnReport* report = nullptr) {
    if (w.layout == Layout::PartialDensity) {
        return reactState(s, net, eos, dt, opt, cost, 0, report);
    }
    return burnGrid(s, zoneIO(w.layout, net), net, eos, dt, opt, cost, 0, report);
}

// The per-zone reference: one zone at a time in traversal order (fab,
// then k/j/i), burnZone per reacting zone, results written straight back.
// A skipped zone counts one step; a failure counts steps+1, leaves
// max_steps alone and is not written back; a success counts max(steps, 1).
// Each fab's steps go to the cost monitor's work channel.
BurnGridStats burnReference(const Workload& w, MultiFab& s, const ReactionNetwork& net,
                            const Eos& eos, Real dt, const ReactOptions& opt,
                            CostMonitor* cost = nullptr) {
    const BurnZoneIO io = zoneIO(w.layout, net);
    std::vector<Real> X(net.nspec());
    BurnGridStats stats;
    for (std::size_t f = 0; f < s.size(); ++f) {
        auto u = s.array(static_cast<int>(f));
        const Box& vb = s.box(static_cast<int>(f));
        std::int64_t fab_steps = 0;
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    ++stats.zones;
                    Real T = 0.0;
                    const Real rho = io.load(u, i, j, k, T, X.data());
                    std::int64_t steps = 1;
                    if (T >= opt.T_min && rho >= opt.rho_min) {
                        const auto r = burnZone(net, eos, rho, T, X.data(), dt, opt.ode);
                        if (!r.success) {
                            ++stats.failures;
                            if (!stats.first_failure.valid) {
                                stats.first_failure = {
                                    true, i, j, k, static_cast<int>(f), -1, rho, T};
                            }
                            fab_steps += r.stats.steps + 1;
                            stats.total_steps += r.stats.steps + 1;
                            continue;
                        }
                        io.store(u, i, j, k, rho, r.T, r.X.data(), r.e_nuc);
                        steps = std::max<std::int64_t>(r.stats.steps, 1);
                    }
                    fab_steps += steps;
                    stats.total_steps += steps;
                    stats.max_steps = std::max(stats.max_steps, steps);
                }
        if (cost != nullptr) {
            cost->addWork(0, static_cast<int>(f), static_cast<double>(fab_steps));
        }
    }
    return stats;
}

// Bitwise comparison over every fab and component of the valid regions.
void expectBitIdentical(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
        auto ua = a.const_array(static_cast<int>(f));
        auto ub = b.const_array(static_cast<int>(f));
        const Box& vb = a.box(static_cast<int>(f));
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        ASSERT_EQ(ua(i, j, k, n), ub(i, j, k, n))
                            << "fab " << f << " comp " << n << " zone (" << i
                            << "," << j << "," << k << ")";
                    }
    }
}

void expectStatsEqual(const BurnGridStats& a, const BurnGridStats& b) {
    EXPECT_EQ(a.zones, b.zones);
    EXPECT_EQ(a.total_steps, b.total_steps);
    EXPECT_EQ(a.max_steps, b.max_steps);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.first_failure.valid, b.first_failure.valid);
    if (a.first_failure.valid) {
        EXPECT_EQ(a.first_failure.i, b.first_failure.i);
        EXPECT_EQ(a.first_failure.j, b.first_failure.j);
        EXPECT_EQ(a.first_failure.k, b.first_failure.k);
        EXPECT_EQ(a.first_failure.fab, b.first_failure.fab);
        EXPECT_EQ(a.first_failure.level, b.first_failure.level);
        EXPECT_EQ(a.first_failure.rho, b.first_failure.rho);
        EXPECT_EQ(a.first_failure.T, b.first_failure.T);
    }
}

// The traversal-order-first reacting zone (fab, then k/j/i) — what the
// reference hits first and what both paths must report as the first
// failure when every burn fails.
BurnFailureSite firstReactingZone(const Workload& w, const ReactionNetwork& net,
                                  const ReactOptions& opt) {
    const BurnZoneIO io = zoneIO(w.layout, net);
    std::vector<Real> X(net.nspec());
    for (std::size_t f = 0; f < w.state.size(); ++f) {
        auto u = w.state.const_array(static_cast<int>(f));
        const Box& vb = w.state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real T = 0.0;
                    const Real rho = io.load(u, i, j, k, T, X.data());
                    if (T < opt.T_min || rho < opt.rho_min) continue;
                    return {true, i, j, k, static_cast<int>(f), -1, rho, T};
                }
    }
    return {};
}

const ReactionNetwork& testNet() {
    static auto net = makeNetworkByName("iso7");
    return net;
}

const Real kDt = 1.0e-7;

} // namespace

// --- Bit-identity across backends ---------------------------------------
//
// Each test runs both layouts: the reference is the per-zone burnZone loop
// above, the driver is the burnGrid gather/burnBatch/scatter.

class ReactBatchedBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(ReactBatchedBackends, BatchedMatchesSerialBitwise) {
    ScopedBackend sb(GetParam());
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    for (Layout layout : kLayouts) {
        SCOPED_TRACE(layoutName(layout));
        Workload w(net, layout);
        auto reference = w.copy();
        auto batched = w.copy();

        const ReactOptions opt;
        auto rs = burnReference(w, reference, net, eos, kDt, opt);
        auto bs = burnDriver(w, batched, net, eos, kDt, opt);

        expectStatsEqual(rs, bs);
        expectBitIdentical(reference, batched);
        EXPECT_EQ(rs.failures, 0);
        EXPECT_GT(rs.total_steps, rs.zones); // something actually burned
    }
}

TEST_P(ReactBatchedBackends, HybridTailMatchesSerialBitwise) {
    ScopedBackend sb(GetParam());
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    ReactOptions ho;
    ho.batch.hybrid_cpu_tail = true;
    ho.batch.tail_factor = 4.0;
    ho.batch.tail_min_stiffness = 0.0;
    for (Layout layout : kLayouts) {
        SCOPED_TRACE(layoutName(layout));
        Workload w(net, layout);
        auto reference = w.copy();
        auto hybrid = w.copy();

        BatchBurnReport rep;
        auto rs = burnReference(w, reference, net, eos, kDt, ho);
        auto hs = burnDriver(w, hybrid, net, eos, kDt, ho, nullptr, &rep);

        expectStatsEqual(rs, hs);
        expectBitIdentical(reference, hybrid);

        EXPECT_EQ(rep.device_zones + rep.tail_zones, rep.gathered);
        EXPECT_GT(rep.tail_zones, 0) << "tail cut " << rep.stiffness_tail_cut
                                     << " median " << rep.stiffness_median;
        EXPECT_GT(rep.batches, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReactBatchedBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Backend::Serial: return "Serial";
                                 case Backend::OpenMP: return "OpenMP";
                                 case Backend::SimGpu: return "SimGpu";
                                 default: return "Debug";
                             }
                         });

// --- Gather/scatter round trip ------------------------------------------

TEST(ReactBatched, ColdZonesAreUntouchedBitwise) {
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    for (Layout layout : kLayouts) {
        SCOPED_TRACE(layoutName(layout));
        Workload w(net, layout);
        auto burned = w.copy();
        BatchBurnReport rep;
        auto bs = burnDriver(w, burned, net, eos, kDt, ReactOptions{}, nullptr, &rep);

        // The gather covers exactly the reacting zones...
        const std::int64_t ncold = static_cast<std::int64_t>(16 / 4) * 16 * 16;
        EXPECT_EQ(rep.gathered, bs.zones - ncold);

        // ...and every skipped zone round-trips bitwise untouched.
        const int comp_T = layout == Layout::PartialDensity ? StateLayout::UTEMP : 0;
        std::int64_t cold_seen = 0;
        for (std::size_t f = 0; f < burned.size(); ++f) {
            auto ub = burned.const_array(static_cast<int>(f));
            auto u0 = w.state.const_array(static_cast<int>(f));
            const Box& vb = burned.box(static_cast<int>(f));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        if (u0(i, j, k, comp_T) >= 5.0e7) continue;
                        ++cold_seen;
                        for (int n = 0; n < burned.nComp(); ++n) {
                            ASSERT_EQ(ub(i, j, k, n), u0(i, j, k, n))
                                << "cold zone (" << i << "," << j << "," << k << ")";
                        }
                    }
        }
        EXPECT_EQ(cold_seen, ncold);
    }
}

TEST(ReactBatched, PerBoxUnsortedConfigurationBurnsOneBatchPerReactingFab) {
    // The old per-zone driver's launch shape as a configuration: batches
    // of one fab's zones, in traversal order. In the workload every fab is
    // either wholly cold or wholly reacting, so each reacting fab is one
    // batch.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net, Layout::PartialDensity, 16, 4);
    ReactOptions po;
    po.batch.batch_size = 4 * 4 * 4;
    po.batch.sort_by_stiffness = false;
    auto reference = w.copy();
    auto per_box = w.copy();
    BatchBurnReport rep;
    auto rs = burnReference(w, reference, net, eos, kDt, po);
    auto ps = burnDriver(w, per_box, net, eos, kDt, po, nullptr, &rep);

    expectStatsEqual(rs, ps);
    expectBitIdentical(reference, per_box);
    const std::int64_t cold_fabs = (16 / 4) * (16 / 4); // the i < 4 slab
    EXPECT_EQ(rep.batches, static_cast<std::int64_t>(w.state.size()) - cold_fabs);
    EXPECT_EQ(rep.gathered, rep.batches * 4 * 4 * 4);
    EXPECT_EQ(rep.tail_zones, 0);
}

TEST(ReactBatched, ConcurrentBurnsEachGetTheirOwnReport) {
    // Two tenants burning on different threads at the same time: each
    // report is the caller's own and equals what the same burn reports
    // when run alone.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    const Workload small(net, Layout::PartialDensity, 8, 4);
    const Workload large(net, Layout::PartialDensity, 16, 8);
    ReactOptions ho;
    ho.batch.hybrid_cpu_tail = true;
    ho.batch.tail_factor = 4.0;
    ho.batch.tail_min_stiffness = 0.0;

    auto burn = [&](const Workload& w, BatchBurnReport& rep) {
        MultiFab s = w.copy();
        reactState(s, net, eos, kDt, ho, nullptr, 0, &rep);
    };
    BatchBurnReport solo_small, solo_large;
    burn(small, solo_small);
    burn(large, solo_large);
    ASSERT_NE(solo_small.gathered, solo_large.gathered);

    BatchBurnReport rep_small, rep_large;
    std::thread t_small([&] { burn(small, rep_small); });
    std::thread t_large([&] { burn(large, rep_large); });
    t_small.join();
    t_large.join();

    auto expectSame = [](const BatchBurnReport& a, const BatchBurnReport& b) {
        EXPECT_EQ(a.gathered, b.gathered);
        EXPECT_EQ(a.device_zones, b.device_zones);
        EXPECT_EQ(a.tail_zones, b.tail_zones);
        EXPECT_EQ(a.batches, b.batches);
        EXPECT_EQ(a.device_steps, b.device_steps);
        EXPECT_EQ(a.tail_steps, b.tail_steps);
        EXPECT_EQ(a.stiffness_median, b.stiffness_median);
        EXPECT_EQ(a.stiffness_tail_cut, b.stiffness_tail_cut);
    };
    expectSame(rep_small, solo_small);
    expectSame(rep_large, solo_large);
}

// --- Fault injection through the driver ---------------------------------

TEST(ReactBatched, EveryZoneFailingNamesTraversalFirstZone) {
    // An unbounded fault window fails every burn in both paths. The
    // driver integrates in stiffness order, but first-failure attribution
    // is defined in traversal order — both paths must name the same zone,
    // and neither may write anything back.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    const ReactOptions opt;
    fault::Spec forever;
    forever.start = 0;
    forever.count = 0; // unbounded
    for (Layout layout : kLayouts) {
        SCOPED_TRACE(layoutName(layout));
        Workload w(net, layout);
        const auto expected = firstReactingZone(w, net, opt);
        ASSERT_TRUE(expected.valid);

        auto reference = w.copy();
        BurnGridStats rs;
        {
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, forever);
            rs = burnReference(w, reference, net, eos, kDt, opt);
        }
        auto batched = w.copy();
        BurnGridStats bs;
        {
            fault::ScopedFault arm(fault::Site::BurnZoneFailure, forever);
            bs = burnDriver(w, batched, net, eos, kDt, opt);
        }

        for (const auto* st : {&rs, &bs}) {
            EXPECT_GT(st->failures, 0);
            ASSERT_TRUE(st->first_failure.valid);
            EXPECT_EQ(st->first_failure.i, expected.i);
            EXPECT_EQ(st->first_failure.j, expected.j);
            EXPECT_EQ(st->first_failure.k, expected.k);
            EXPECT_EQ(st->first_failure.fab, expected.fab);
            EXPECT_EQ(st->first_failure.level, -1);
            EXPECT_EQ(st->first_failure.rho, expected.rho);
            EXPECT_EQ(st->first_failure.T, expected.T);
        }
        expectStatsEqual(rs, bs);
        // Failed zones are not scattered: the whole state is untouched.
        expectBitIdentical(reference, w.state);
        expectBitIdentical(batched, w.state);
    }
}

TEST(ReactBatched, SingleFaultFailsExactlyOneZoneAndLeavesItUntouched) {
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    Workload w(net);

    auto burned = w.copy();
    BurnGridStats bs;
    {
        fault::ScopedFault arm(fault::Site::BurnZoneFailure, fault::Spec{});
        bs = reactState(burned, net, eos, kDt, ReactOptions{});
    }
    EXPECT_EQ(bs.failures, 1);
    ASSERT_TRUE(bs.first_failure.valid);
    EXPECT_EQ(bs.first_failure.level, -1);
    ASSERT_GE(bs.first_failure.fab, 0);
    ASSERT_LT(bs.first_failure.fab, static_cast<int>(burned.size()));
    const auto& site = bs.first_failure;
    // The named zone is inside its fab's box, was eligible, and was left
    // exactly as gathered.
    const Box& vb = burned.box(site.fab);
    EXPECT_TRUE(vb.contains(site.i, site.j, site.k));
    auto ub = burned.const_array(site.fab);
    auto u0 = w.state.const_array(site.fab);
    EXPECT_GE(site.T, 5.0e7);
    for (int n = 0; n < burned.nComp(); ++n) {
        EXPECT_EQ(ub(site.i, site.j, site.k, n), u0(site.i, site.j, site.k, n));
    }
}

// --- Cost accounting -----------------------------------------------------

TEST(ReactBatched, WorkChannelMatchesSerialPerFab) {
    // The load balancer's work channel (integrator steps per fab) must
    // equal the per-zone reference's.
    const auto& net = testNet();
    Eos eos{HelmLiteEos{}};
    for (Layout layout : kLayouts) {
        SCOPED_TRACE(layoutName(layout));
        Workload w(net, layout);
        CostMonitor mon_r, mon_b;

        auto reference = w.copy();
        auto batched = w.copy();
        burnReference(w, reference, net, eos, kDt, ReactOptions{}, &mon_r);
        burnDriver(w, batched, net, eos, kDt, ReactOptions{}, &mon_b);
        mon_r.commitStep(0);
        mon_b.commitStep(0);

        const auto cr = mon_r.costs(0);
        const auto cb = mon_b.costs(0);
        ASSERT_EQ(cr.size(), w.state.size());
        ASSERT_EQ(cb.size(), cr.size());
        for (std::size_t f = 0; f < cr.size(); ++f) {
            EXPECT_DOUBLE_EQ(cr[f], cb[f]) << "fab " << f;
        }
    }
}

TEST(ReactBatched, WiderThanStackScratchThrowsBeforeTheGather) {
    // 64 reaction-free species: the gather's stack scratch holds 63, so
    // the driver must refuse the network before it loads a zone.
    const ReactionNetwork wide("wide64", std::vector<Species>(kMaxStackSpec + 1), {});
    Eos eos{HelmLiteEos{}};
    BoxArray ba(Box({0, 0, 0}, {3, 3, 3}));
    DistributionMapping dm(ba, 1);
    MultiFab state(ba, dm, StateLayout(wide.nspec()).ncomp(), 0);
    state.setVal(1.0e9);
    try {
        reactState(state, wide, eos, 1.0e-6);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("burnGrid"), std::string::npos) << msg;
        EXPECT_NE(msg.find("wide64"), std::string::npos) << msg;
    }
}

// --- WD-collision driver defaults ---------------------------------------

TEST(ReactBatched, WdCollisionDriverEnablesBatchedHybridBurn) {
    WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    auto wd = p.build();
    ASSERT_TRUE(wd.castro != nullptr);
    ASSERT_TRUE(wd.network != nullptr);
    EXPECT_EQ(wd.network->name(), "aprox13");
    const auto& opt = wd.castro->options();
    EXPECT_TRUE(opt.react.batch.sort_by_stiffness);
    EXPECT_TRUE(opt.react.batch.hybrid_cpu_tail);
}

TEST(ReactBatched, WdCollisionNetworkSelectableByName) {
    WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.network = "iso7";
    auto wd = p.build();
    ASSERT_TRUE(wd.network != nullptr);
    EXPECT_EQ(wd.network->name(), "iso7");
    EXPECT_EQ(wd.castro->network().nspec(), 7);

    p.network = "no_such_net";
    EXPECT_THROW(p.build(), std::invalid_argument);
}
