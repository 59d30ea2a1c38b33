// Composite-grid FMG Poisson solver, the one Poisson solver of the tree:
// manufactured-solution convergence on uniform and refined hierarchies,
// bounded cycle counts at tight rtol, V-cycle contraction and the
// warm-started single-level Neumann solve of the MAESTRO projection,
// bit-identity across backends / aggregation on-off / split-phase halos /
// exchange-free one-box rungs / the replayed bottom, launch counts per
// half-sweep and per bottom visit, the coloured flux correction against
// its per-item form, and the coarse-aggregation counters. The Castro
// integration half at the bottom exercises GravityType::Poisson on the
// AMR driver end to end: amr-blast with gravity across a regrid, and
// rank-failure recovery bit-identity.

#include "../support/check_every_launch.hpp"
#include "castro/castro.hpp"
#include "comm/ledger.hpp"
#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"
#include "microphysics/network.hpp"
#include "perf/device_model.hpp"
#include "resilience/supervisor.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

using namespace exa;

namespace {

constexpr Real pi = constants::pi;

struct Hier {
    std::vector<Geometry> geoms;
    std::vector<BoxArray> bas;
    std::vector<DistributionMapping> dms;
    std::vector<MultiFab> phi, rhs, exact;
};

// One- or two-level hierarchy on the unit cube with a product-of-sines
// manufactured solution. Two-level: the coarse boxes `refined` are
// refined by 2.
Hier makeHierOn(int n, const std::vector<Box>& refined, bool dirichlet, int nranks,
                int max_grid) {
    Hier h;
    const Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    const IntVect per = dirichlet ? IntVect{0, 0, 0} : IntVect{1, 1, 1};
    h.geoms.emplace_back(dom, std::array<Real, 3>{0, 0, 0},
                         std::array<Real, 3>{1, 1, 1}, per);
    BoxArray ba0(dom);
    ba0.maxSize(max_grid);
    h.bas.push_back(ba0);
    h.dms.emplace_back(ba0, nranks);
    if (!refined.empty()) {
        std::vector<Box> fine;
        for (const Box& b : refined) fine.push_back(refine(b, 2));
        h.geoms.push_back(h.geoms[0].refined(2));
        BoxArray ba1(fine);
        ba1.maxSize(max_grid);
        h.bas.push_back(ba1);
        h.dms.emplace_back(ba1, nranks);
    }
    const Real k = dirichlet ? pi : 2.0 * pi;
    for (std::size_t lev = 0; lev < h.geoms.size(); ++lev) {
        h.phi.emplace_back(h.bas[lev], h.dms[lev], 1, 1);
        h.rhs.emplace_back(h.bas[lev], h.dms[lev], 1, 0);
        h.exact.emplace_back(h.bas[lev], h.dms[lev], 1, 0);
        h.phi[lev].setVal(0.0);
        const Geometry g = h.geoms[lev];
        for (std::size_t i = 0; i < h.rhs[lev].size(); ++i) {
            auto r = h.rhs[lev].array(static_cast<int>(i));
            auto e = h.exact[lev].array(static_cast<int>(i));
            ParallelFor(h.rhs[lev].box(static_cast<int>(i)),
                        [=](int ii, int j, int kk) {
                const Real u = std::sin(k * g.cellCenter(0, ii)) *
                               std::sin(k * g.cellCenter(1, j)) *
                               std::sin(k * g.cellCenter(2, kk));
                e(ii, j, kk) = u;
                r(ii, j, kk) = -3.0 * k * k * u;
            });
        }
    }
    return h;
}

// makeHierOn with the central half of the domain refined (a genuine
// partial-coverage level with coarse-fine faces on all six sides).
Hier makeHier(int n, bool refined, bool dirichlet, int nranks = 4, int max_grid = 8) {
    std::vector<Box> fine;
    if (refined)
        fine.push_back(Box({n / 4, n / 4, n / 4}, {3 * n / 4 - 1, 3 * n / 4 - 1, 3 * n / 4 - 1}));
    return makeHierOn(n, fine, dirichlet, nranks, max_grid);
}

CompositeMgResult solveHier(Hier& h, MgBC bc, CompositeMgOptions opt = {}) {
    opt.nranks = h.dms[0].numRanks();
    CompositeMg mg(h.geoms, h.bas, h.dms, 2, bc, opt);
    std::vector<MultiFab*> phi;
    std::vector<const MultiFab*> rhs;
    for (std::size_t lev = 0; lev < h.phi.size(); ++lev) {
        phi.push_back(&h.phi[lev]);
        rhs.push_back(&h.rhs[lev]);
    }
    return mg.solve(phi, rhs);
}

// Valid-region boxes of level `lev` not covered by level lev+1.
std::vector<Box> uncoveredBoxes(const Hier& h, std::size_t lev,
                                std::size_t fab) {
    std::vector<Box> rem{h.bas[lev][static_cast<int>(fab)]};
    if (lev + 1 < h.bas.size()) {
        for (const Box& fb : h.bas[lev + 1].boxes()) {
            const Box cb = coarsen(fb, 2);
            std::vector<Box> next;
            for (const Box& b : rem) {
                const auto diff = boxDiff(b, cb);
                next.insert(next.end(), diff.begin(), diff.end());
            }
            rem.swap(next);
        }
    }
    return rem;
}

// Volume-weighted composite L2 error against the manufactured solution
// (finest data wins on covered regions).
Real compositeL2Error(const Hier& h) {
    Real sum = 0.0, vol = 0.0;
    for (std::size_t lev = 0; lev < h.phi.size(); ++lev) {
        const Real v = h.geoms[lev].cellVolume();
        for (std::size_t q = 0; q < h.phi[lev].size(); ++q) {
            auto a = h.phi[lev].const_array(static_cast<int>(q));
            auto e = h.exact[lev].const_array(static_cast<int>(q));
            for (const Box& b : uncoveredBoxes(h, lev, q)) {
                for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
                    for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                        for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i) {
                            const Real d = a(i, j, k) - e(i, j, k);
                            sum += d * d * v;
                            vol += v;
                        }
            }
        }
    }
    return std::sqrt(sum / vol);
}

void hashMfInto(std::uint64_t& h, const MultiFab& mf) {
    auto mix = [&h](Real x) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    };
    for (std::size_t q = 0; q < mf.size(); ++q) {
        auto a = mf.const_array(static_cast<int>(q));
        const Box& b = mf.box(static_cast<int>(q));
        for (int n = 0; n < mf.nComp(); ++n)
            for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
                for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                    for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i)
                        mix(a(i, j, k, n));
    }
}

std::uint64_t hashLevels(const std::vector<MultiFab>& mfs) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const MultiFab& mf : mfs) hashMfInto(h, mf);
    return h;
}

std::uint64_t hashMf(const MultiFab& mf) {
    std::uint64_t h = 1469598103934665603ULL;
    hashMfInto(h, mf);
    return h;
}

// MgCfBoundary::addFluxMismatch as one launch per item, in construction
// order: the reference its one-launch-per-colour form must match to the
// bit.
void fluxMismatchPerItem(const MgCfBoundary& cf, MultiFab& dst, const MultiFab& fine,
                         const MultiFab& crse, const Geometry& cgeom,
                         const Geometry& fgeom, Real sign) {
    const int r = 2;
    const Real inv_r2 = 1.0 / (static_cast<Real>(r) * r);
    for (const MgCfBoundary::FluxItem& item : cf.fluxItems()) {
        auto dA = dst.array(item.crse_fab);
        auto cA = crse.const_array(item.crse_fab);
        auto fA = fine.const_array(item.fine_fab);
        const int d = item.dim;
        const int t1 = (d + 1) % 3;
        const int t2 = (d + 2) % 3;
        const int gn = item.gn;
        const int dir = item.side == 0 ? 1 : -1;
        const IntVect e = IntVect::basis(d);
        const IntVect sh = item.sh;
        const Box ghosts = item.ghosts;
        const Real inv_hf = 1.0 / fgeom.cellSize(d);
        const Real inv_hc = 1.0 / cgeom.cellSize(d);
        ParallelFor(KernelInfo{"flux_corr_reference", 20.0, 64.0, 40, 1.0}, item.crse_cells,
                    [=](int i, int j, int k) {
            const IntVect o{i + sh.x, j + sh.y, k + sh.z};
            Real acc = 0.0;
            for (int a = 0; a < r; ++a) {
                for (int b = 0; b < r; ++b) {
                    IntVect g;
                    g[d] = gn;
                    g[t1] = o[t1] * r + a;
                    g[t2] = o[t2] * r + b;
                    if (!ghosts.contains(g)) continue;
                    IntVect f1 = g;
                    f1[d] += dir;
                    acc += (fA(f1.x, f1.y, f1.z) - fA(g.x, g.y, g.z)) * inv_hf -
                           (cA(i + dir * e.x, j + dir * e.y, k + dir * e.z) - cA(i, j, k)) *
                               inv_hc;
                }
            }
            dA(i, j, k) += sign * acc * inv_r2 * inv_hc;
        });
    }
}

} // namespace

TEST(CompositeMg, UniformDirichletSecondOrder) {
    Hier h16 = makeHier(16, false, true);
    Hier h32 = makeHier(32, false, true);
    auto r16 = solveHier(h16, MgBC::Dirichlet);
    auto r32 = solveHier(h32, MgBC::Dirichlet);
    ASSERT_TRUE(r16.converged);
    ASSERT_TRUE(r32.converged);
    const Real e16 = compositeL2Error(h16);
    const Real e32 = compositeL2Error(h32);
    EXPECT_GT(e16 / e32, 3.0);
    EXPECT_LT(e16 / e32, 5.0);
}

TEST(CompositeMg, RefinedHierarchySecondOrder) {
    // The composite solve must stay second order with a partial-coverage
    // fine level in the middle of the domain — the coarse-fine interface
    // interpolation and flux corrections are what this certifies.
    Hier h16 = makeHier(16, true, true);
    Hier h32 = makeHier(32, true, true);
    auto r16 = solveHier(h16, MgBC::Dirichlet);
    auto r32 = solveHier(h32, MgBC::Dirichlet);
    ASSERT_TRUE(r16.converged);
    ASSERT_TRUE(r32.converged);
    const Real e16 = compositeL2Error(h16);
    const Real e32 = compositeL2Error(h32);
    EXPECT_GT(e16 / e32, 3.0);
    EXPECT_LT(e16 / e32, 5.0);
}

TEST(CompositeMg, RefinedPeriodicConverges) {
    Hier h = makeHier(32, true, false);
    auto r = solveHier(h, MgBC::Periodic);
    EXPECT_TRUE(r.converged);
    // Periodic solution is defined up to a constant; the solver removes
    // the composite mean and the sin product has zero mean, so compare
    // directly (loose bound: coarse level is 32^3).
    EXPECT_LT(compositeL2Error(h), 2e-2);
}

TEST(CompositeMg, TightToleranceBoundedCycles) {
    Hier h = makeHier(32, true, true);
    CompositeMgOptions opt;
    opt.rtol = 1e-10;
    auto r = solveHier(h, MgBC::Dirichlet, opt);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.final_resnorm, 1e-10 * std::max(r.initial_resnorm, Real(1.0)));
    EXPECT_EQ(r.fmg_cycles, 1);
    EXPECT_LE(r.vcycles, 25); // FMG start + healthy V-cycle contraction
    EXPECT_GT(r.sweeps, 0);
}

TEST(CompositeMg, FastResidualReduction) {
    // Without the FMG bootstrap (the warm-start path), a healthy V-cycle
    // knocks the residual down by >~5x per cycle.
    Hier h = makeHier(32, false, false, /*nranks=*/2, /*max_grid=*/16);
    CompositeMgOptions opt;
    opt.rtol = 1e-11;
    opt.fmg = false;
    auto r = solveHier(h, MgBC::Periodic, opt);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.fmg_cycles, 0);
    const double per_cycle =
        std::pow(r.final_resnorm / r.initial_resnorm, 1.0 / r.vcycles);
    EXPECT_LT(per_cycle, 0.2);
    EXPECT_LE(r.vcycles, 20);
}

TEST(CompositeMg, NeumannWithZeroMeanRhs) {
    // The MAESTRO projection's configuration: one level, homogeneous
    // Neumann walls (singular: the solver removes the rhs and phi means),
    // warm start. cos(pi x)cos(pi y)cos(pi z) satisfies the face BCs and
    // has zero mean, so phi is compared with it directly. A second warm
    // solve from the converged phi has nothing left to do.
    const int n = 32;
    const Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
    BoxArray ba(dom);
    ba.maxSize(16);
    const DistributionMapping dm(ba, 2);
    MultiFab phi(ba, dm, 1, 1), rhs(ba, dm, 1, 0), exact(ba, dm, 1, 0);
    phi.setVal(0.0);
    for (std::size_t i = 0; i < rhs.size(); ++i) {
        auto r = rhs.array(static_cast<int>(i));
        auto e = exact.array(static_cast<int>(i));
        ParallelFor(rhs.box(static_cast<int>(i)), [=](int ii, int j, int kk) {
            const Real u = std::cos(pi * geom.cellCenter(0, ii)) *
                           std::cos(pi * geom.cellCenter(1, j)) *
                           std::cos(pi * geom.cellCenter(2, kk));
            e(ii, j, kk) = u;
            r(ii, j, kk) = -3.0 * pi * pi * u;
        });
    }
    CompositeMgOptions opt;
    opt.warm_start = true;
    opt.nranks = 2;
    CompositeMg mg({geom}, {ba}, {dm}, 2, MgBC::Neumann, opt);
    auto res = mg.solve({&phi}, {&rhs});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.fmg_cycles, 0);
    EXPECT_GT(res.vcycles, 0);
    Real err = 0;
    for (std::size_t i = 0; i < phi.size(); ++i) {
        auto a = phi.const_array(static_cast<int>(i));
        auto e = exact.const_array(static_cast<int>(i));
        err = std::max(err, ParallelReduceMax(phi.box(static_cast<int>(i)),
                                              [=](int ii, int j, int k) {
            return std::abs(a(ii, j, k) - e(ii, j, k));
        }));
    }
    EXPECT_LT(err, 2e-2);

    auto again = mg.solve({&phi}, {&rhs});
    EXPECT_TRUE(again.converged);
    EXPECT_LE(again.vcycles, 1);
}

TEST(CompositeMg, ZeroRhsKeepsZeroSolution) {
    Hier h = makeHier(16, true, true);
    for (auto& r : h.rhs) r.setVal(0.0);
    auto res = solveHier(h, MgBC::Dirichlet);
    EXPECT_TRUE(res.converged);
    for (auto& p : h.phi) EXPECT_LT(p.norminf(0), 1e-12);
}

TEST(CompositeMg, BitIdenticalAcrossBackends) {
    std::vector<std::uint64_t> hashes;
    for (Backend b : {Backend::Serial, Backend::OpenMP, Backend::SimGpu,
                      Backend::Debug}) {
        ScopedBackend backend(b);
        Hier h = makeHier(16, true, true);
        CompositeMgOptions opt;
        opt.rtol = 1e-10;
        auto r = solveHier(h, MgBC::Dirichlet, opt);
        EXPECT_TRUE(r.converged);
        hashes.push_back(hashLevels(h.phi));
    }
    for (std::size_t i = 1; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[0], hashes[i]) << "backend " << i;
}

TEST(CompositeMg, AggregationOnOffBitIdentical) {
    // Coarse-level rank aggregation relayouts geometric rungs only; the
    // answer (and every intermediate, since restriction stages through
    // averaged fabs with identical arithmetic) must not move by a bit.
    std::uint64_t hon = 0, hoff = 0;
    {
        Hier h = makeHier(32, true, true, /*nranks=*/8);
        CompositeMgOptions opt;
        opt.aggregate_coarse = true;
        opt.agg_zones_per_rank = 4096;
        opt.nranks = 8;
        CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Dirichlet, opt);
        EXPECT_GT(mg.aggregatedRungs(), 0);
        std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
        std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
        auto r = mg.solve(phi, rhs);
        EXPECT_TRUE(r.converged);
        EXPECT_GT(r.agg_copies, 0);
        EXPECT_GT(r.agg_bytes, 0);
        hon = hashLevels(h.phi);
    }
    {
        Hier h = makeHier(32, true, true, /*nranks=*/8);
        CompositeMgOptions opt;
        opt.aggregate_coarse = false;
        opt.nranks = 8;
        CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Dirichlet, opt);
        EXPECT_EQ(mg.aggregatedRungs(), 0);
        std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
        std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
        auto r = mg.solve(phi, rhs);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.agg_copies, 0);
        EXPECT_EQ(r.agg_bytes, 0);
        hoff = hashLevels(h.phi);
    }
    EXPECT_EQ(hon, hoff);
}

TEST(CompositeMg, SplitPhaseHalosBitIdentical) {
    // Every smoother half-sweep on a rung with interiors posts its
    // exchange and smooths interiors while it is in flight. Under Debug
    // the in-flight ghosts read NaN, so the solve matches Serial only if
    // nothing reads a ghost before finish().
    auto run = [](Backend be, std::int64_t* split_msgs) {
        ScopedBackend backend(be);
        Hier h = makeHier(16, true, true);
        CommLedger ledger;
        ledger.attach();
        auto r = solveHier(h, MgBC::Dirichlet);
        ledger.detach();
        EXPECT_TRUE(r.converged);
        *split_msgs = ledger.splitPhaseMessages();
        return hashLevels(h.phi);
    };
    std::int64_t serial_split = 0, debug_split = 0;
    const std::uint64_t hserial = run(Backend::Serial, &serial_split);
    const std::uint64_t hdebug = run(Backend::Debug, &debug_split);
    EXPECT_GT(serial_split, 0);
    EXPECT_EQ(serial_split, debug_split);
    EXPECT_EQ(hserial, hdebug);
}

namespace {

// Red-black half-sweeps of a solve that are not inside a replayed
// bottom visit.
std::int64_t loopSweeps(const CompositeMgResult& r) {
    return r.sweeps - r.bottom_replays * 2 * CompositeMg::kBottomSmooth;
}

std::int64_t kernelLaunches(const DeviceModel& dev, const char* name) {
    const auto it = dev.kernelStats().find(name);
    return it == dev.kernelStats().end() ? 0 : it->second.launches;
}

} // namespace

TEST(CompositeMg, HalfSweepIsAtMostTwoSmoothLaunches) {
    // Every red-black half-sweep above the bottom smooths one rung: one
    // launch over the interiors and one over the shells. Every visit to
    // the one-box 2^3 bottom is one mg_bottom launch. Data, messages and
    // bytes match the Serial backend, which runs one launch per box.
    struct Run {
        CompositeMgResult res;
        std::uint64_t hash = 0;
        std::int64_t smooth_launches = 0, bottom_launches = 0, messages = 0, bytes = 0;
    };
    auto run = [](Backend be) {
        ScopedBackend backend(be);
        Hier h = makeHier(16, true, true);
        DeviceModel dev;
        CommLedger ledger;
        dev.attach();
        ledger.attach();
        Run out;
        out.res = solveHier(h, MgBC::Dirichlet);
        dev.detach();
        ledger.detach();
        out.hash = hashLevels(h.phi);
        out.smooth_launches = kernelLaunches(dev, "mg_smooth");
        out.bottom_launches = kernelLaunches(dev, "mg_bottom");
        out.messages = ledger.totalMessages();
        out.bytes = ledger.totalBytes();
        return out;
    };
    const Run gpu = run(Backend::SimGpu);
    const Run ref = run(Backend::Serial);
    ASSERT_TRUE(gpu.res.converged);
    ASSERT_GT(gpu.res.bottom_replays, 0);
    ASSERT_GT(loopSweeps(gpu.res), 0);
    EXPECT_LE(gpu.smooth_launches, 2 * loopSweeps(gpu.res));
    EXPECT_GT(gpu.smooth_launches, loopSweeps(gpu.res)); // some rungs have interiors
    EXPECT_EQ(gpu.bottom_launches, gpu.res.bottom_replays);
    EXPECT_EQ(ref.smooth_launches, 0); // Serial publishes no launches
    EXPECT_EQ(gpu.res.sweeps, ref.res.sweeps);
    EXPECT_EQ(gpu.res.bottom_replays, ref.res.bottom_replays);
    EXPECT_EQ(gpu.hash, ref.hash);
    EXPECT_GT(gpu.messages, 0);
    EXPECT_EQ(gpu.messages, ref.messages);
    EXPECT_EQ(gpu.bytes, ref.bytes);
}

TEST(CompositeMg, WholeOnlyRungsExchangeEagerly) {
    // 2^3 boxes have no interior, so every fab of every rung is whole:
    // each half-sweep is one eager exchange (one fab_copy launch, no
    // split-phase post) and one smooth launch.
    ScopedBackend backend(Backend::SimGpu);
    Hier h = makeHier(4, false, true, 4, 2);
    std::vector<std::string> kernels;
    CommLedger ledger;
    ledger.attach();
    EventSubscription sub([&](const Event& e) {
        if (const auto* l = std::get_if<LaunchRecord>(&e)) kernels.push_back(l->info.name);
    });
    const CompositeMgResult r = solveHier(h, MgBC::Dirichlet);
    sub.reset();
    ledger.detach();
    EXPECT_EQ(ledger.halosPosted(), 0);
    // Between two smooth launches of one rung visit only the next
    // half-sweep's ghost fill runs: its exchange and the domain BC. The
    // one-box bottom rung's visits are one mg_bottom launch each.
    std::int64_t smooth = 0, exchanges = 0;
    std::vector<std::string> gap;
    for (const std::string& k : kernels) {
        if (k != "mg_smooth") {
            gap.push_back(k);
            continue;
        }
        const bool fill_only = std::all_of(gap.begin(), gap.end(), [](const std::string& g) {
            return g == "fab_copy" || g == "mg_bc_fill";
        });
        if (++smooth > 1 && fill_only) {
            const auto copies = std::count(gap.begin(), gap.end(), "fab_copy");
            EXPECT_LE(copies, 1);
            exchanges += copies;
        }
        gap.clear();
    }
    EXPECT_EQ(smooth, loopSweeps(r));
    EXPECT_GT(r.bottom_replays, 0);
    EXPECT_EQ(std::count(kernels.begin(), kernels.end(), "mg_bottom"), r.bottom_replays);
    EXPECT_GT(exchanges, 0);
}

TEST(CompositeMg, BottomVisitIsOneLaunch) {
    // Each visit to the one-box 2^3 bottom is one mg_bottom launch of one
    // work item that replays the visit in place, with no copy after it;
    // no mg_smooth launch touches the bottom. FMG visits it once, then
    // once per V-cycle, its own stages' included. The sweeps and bits are
    // the Serial run's, and the device model charges a visit at least the
    // time one thread needs for the replay.
    struct Launch {
        std::string name;
        std::int64_t zones;
    };
    auto run = [](Backend be, std::vector<Launch>& launches, DeviceModel& dev) {
        ScopedBackend backend(be);
        Hier h = makeHier(16, true, true);
        dev.attach();
        EventSubscription sub([&](const Event& e) {
            if (const auto* l = std::get_if<LaunchRecord>(&e))
                launches.push_back({l->info.name, l->zones});
        });
        const CompositeMgResult r = solveHier(h, MgBC::Dirichlet);
        sub.reset();
        dev.detach();
        return std::pair{r, hashLevels(h.phi)};
    };
    std::vector<Launch> launches, serial_launches;
    DeviceModel dev, serial_dev;
    const auto [gpu, gpu_hash] = run(Backend::SimGpu, launches, dev);
    const auto [ref, ref_hash] = run(Backend::Serial, serial_launches, serial_dev);
    ASSERT_TRUE(gpu.converged);
    EXPECT_EQ(gpu.fmg_cycles, 1);
    EXPECT_EQ(gpu.bottom_replays, 1 + gpu.all_vcycles);
    std::int64_t bottoms = 0;
    for (std::size_t t = 0; t < launches.size(); ++t) {
        if (launches[t].name == "mg_smooth") {
            EXPECT_GT(launches[t].zones, 8);
        }
        if (launches[t].name != "mg_bottom") continue;
        ++bottoms;
        EXPECT_EQ(launches[t].zones, 1);
        // The visit leaves its result in phi, with no copy: a V-cycle's
        // visit is followed by the prolongation's mf_lincomb, the FMG
        // bootstrap's by the staging copy up to rung 1.
        ASSERT_LT(t + 1, launches.size());
        EXPECT_EQ(launches[t + 1].name, bottoms == 1 ? "fab_copy" : "mf_lincomb")
            << "after bottom visit " << bottoms;
    }
    EXPECT_EQ(bottoms, gpu.bottom_replays);
    const DeviceModel::KernelStats& ks = dev.kernelStats().at("mg_bottom");
    EXPECT_EQ(ks.launches, gpu.bottom_replays);
    EXPECT_GT(ks.seconds / static_cast<double>(ks.launches),
              ks.info.flops_per_zone / dev.params().single_thread_flops);
    EXPECT_TRUE(serial_launches.empty()); // Serial publishes no launches
    EXPECT_EQ(gpu.sweeps, ref.sweeps);
    EXPECT_EQ(gpu.bottom_replays, ref.bottom_replays);
    EXPECT_EQ(gpu_hash, ref_hash);
}

TEST(CompositeMg, ReplayedBottomMatchesSplitPhaseBits) {
    // With min_level_side 2 a 4^3 level 0 has one rung below it, 2^3.
    // Aggregated onto one box, each visit to it replays its half-sweeps
    // in one launch; chopped into 1^3 boxes (restriction needs the finer
    // rung's boxes coarsenable, which level 0's own layout keeps), it
    // sweeps with exchanges. The bits must agree on every backend, with
    // Debug checking every launch. Bottoms above kReplayMaxZones keep one
    // launch per half-sweep: a 12^3 ladder bottoms out at 3^3 (Dirichlet,
    // 27 zones), or at 6^3 when stopped at side 6.
    struct Case {
        int n;
        MgBC bc;
        int min_level_side;
        int chop; // max_grid_size of the split-path run
        bool replayed;
    };
    const Case cases[] = {{4, MgBC::Dirichlet, 2, 1, true},
                          {4, MgBC::Neumann, 2, 1, true},
                          {4, MgBC::Periodic, 2, 1, true},
                          {12, MgBC::Dirichlet, 2, 2, false},
                          {12, MgBC::Dirichlet, 6, 4, false}};
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    const int saved_checks = debug::limits().checks_per_kernel;
    debug::limits().checks_per_kernel = 0; // check every launch
    for (Backend be : {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
        ScopedBackend backend(be);
        for (const Case& c : cases) {
            auto run = [&](bool one_box) {
                Hier h = makeHier(c.n, true, c.bc != MgBC::Periodic);
                CompositeMgOptions opt;
                opt.nranks = h.dms[0].numRanks();
                opt.min_level_side = c.min_level_side;
                if (!one_box) {
                    opt.aggregate_coarse = false;
                    opt.max_grid_size = c.chop;
                }
                CompositeMg mg(h.geoms, h.bas, h.dms, 2, c.bc, opt);
                std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
                std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
                const CompositeMgResult r = mg.solve(phi, rhs);
                EXPECT_TRUE(r.converged);
                EXPECT_EQ(r.bottom_replays > 0, one_box && c.replayed);
                return std::pair{hashLevels(h.phi), r.sweeps};
            };
            EXPECT_EQ(run(true), run(false))
                << "n " << c.n << " bc " << static_cast<int>(c.bc) << " backend "
                << static_cast<int>(be);
        }
    }
    debug::limits().checks_per_kernel = saved_checks;
    for (const auto& v : debug::violations())
        ADD_FAILURE() << v.source << ": " << v.kind << " " << v.detail;
    debug::clearViolations();
}

TEST(CompositeMg, OddBoxRungsEndTheLadder) {
    // Balanced chops split an even side into odd boxes (10 at 8 is 5+5,
    // 6 at 4 is 3+3), and restriction by 2 cannot average such a box: it
    // would read past the fine fab. The ladder ends above the first rung
    // with one, so these hierarchies solve to rtol, to the same bits on
    // every backend: a 10^3 level 0 chopped at 8 keeps no geometric rung,
    // and a refined 12^3 hierarchy whose 6^3 rung is chopped at 4 bottoms
    // out there instead of at 3^3.
    struct Case {
        int n;
        bool refined;
        MgBC bc;
        int rung_chop; // max_grid_size of the geometric rungs
        int rungs;
    };
    const Case cases[] = {{10, false, MgBC::Dirichlet, 32, 1},
                          {10, false, MgBC::Periodic, 32, 1},
                          {12, true, MgBC::Dirichlet, 4, 3}};
    for (const Case& c : cases) {
        std::vector<std::uint64_t> hashes;
        for (Backend be :
             {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
            ScopedBackend backend(be);
            Hier h = makeHier(c.n, c.refined, c.bc == MgBC::Dirichlet);
            CompositeMgOptions opt;
            opt.nranks = h.dms[0].numRanks();
            opt.min_level_side = 2;
            opt.aggregate_coarse = false;
            opt.max_grid_size = c.rung_chop;
            CompositeMg mg(h.geoms, h.bas, h.dms, 2, c.bc, opt);
            EXPECT_EQ(mg.numRungs(), c.rungs) << "n " << c.n;
            std::vector<MultiFab*> phi;
            std::vector<const MultiFab*> rhs;
            for (std::size_t lev = 0; lev < h.phi.size(); ++lev) {
                phi.push_back(&h.phi[lev]);
                rhs.push_back(&h.rhs[lev]);
            }
            const CompositeMgResult r = mg.solve(phi, rhs);
            EXPECT_TRUE(r.converged) << "n " << c.n << " backend " << static_cast<int>(be);
            EXPECT_LE(r.final_resnorm, opt.rtol * r.initial_resnorm);
            hashes.push_back(hashLevels(h.phi));
        }
        for (std::size_t i = 1; i < hashes.size(); ++i)
            EXPECT_EQ(hashes[0], hashes[i]) << "n " << c.n << " backend " << i;
    }
}

TEST(CompositeMg, ExchangeFreeRungFillsGhostsOnlyForAFinerBoundary) {
    // An exchange-free rung's residual, operator and FAS rhs read its
    // periodic images inline, so its ghosts are filled only when a finer
    // rung's coarse-fine boundary reads them. Filling a one-box periodic
    // n^3 rung is one fab_copy launch over its (n+2)^3 - n^3 ghosts.
    auto copies = [](bool refined) {
        ScopedBackend backend(Backend::SimGpu);
        Hier h = makeHier(16, refined, false, /*nranks=*/1, /*max_grid=*/16);
        CompositeMgOptions opt;
        opt.nranks = 1;
        CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Periodic, opt);
        EXPECT_EQ(mg.exchangeFreeRungs(), 4); // 16^3, 8^3, 4^3, 2^3
        std::vector<MultiFab*> phi;
        std::vector<const MultiFab*> rhs;
        for (std::size_t lev = 0; lev < h.phi.size(); ++lev) {
            phi.push_back(&h.phi[lev]);
            rhs.push_back(&h.rhs[lev]);
        }
        std::vector<std::int64_t> zones;
        EventSubscription sub([&](const Event& e) {
            const auto* l = std::get_if<LaunchRecord>(&e);
            if (l && std::string(l->info.name) == "fab_copy") zones.push_back(l->zones);
        });
        EXPECT_TRUE(mg.solve(phi, rhs).converged);
        return zones;
    };
    auto fills = [](const std::vector<std::int64_t>& zones, int n) {
        const std::int64_t ghosts = std::int64_t{n + 2} * (n + 2) * (n + 2) - n * n * n;
        return std::count(zones.begin(), zones.end(), ghosts);
    };
    const std::vector<std::int64_t> one_level = copies(false);
    for (int n : {16, 8, 4, 2}) EXPECT_EQ(fills(one_level, n), 0) << "one level, rung " << n;
    // The refined level's boundary reads level 0's ghosts; the geometric
    // rungs below level 0 still fill nothing.
    const std::vector<std::int64_t> two_levels = copies(true);
    EXPECT_GT(fills(two_levels, 16), 0);
    for (int n : {8, 4, 2}) EXPECT_EQ(fills(two_levels, n), 0) << "two levels, rung " << n;
}

TEST(CompositeMg, RepeatSolveIsDeterministic) {
    // Solves are cold (pure function of the rhs): the second solve on the
    // same object must reproduce the first bit for bit.
    Hier h = makeHier(16, true, true);
    CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Dirichlet, {});
    std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
    std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
    auto r1 = mg.solve(phi, rhs);
    const std::uint64_t h1 = hashLevels(h.phi);
    auto r2 = mg.solve(phi, rhs);
    const std::uint64_t h2 = hashLevels(h.phi);
    EXPECT_TRUE(r1.converged);
    EXPECT_EQ(r1.vcycles, r2.vcycles);
    EXPECT_EQ(h1, h2);
}

TEST(CompositeMg, SolveLaunchesNoDomainBoundaryFill) {
    // The rung stencils read Dirichlet and Neumann neighbours inline, so a
    // solve launches no boundary fill. fillCompositeGhosts still fills the
    // physical ghosts for the caller's gradient: one launch for level 0;
    // the refined level touches no domain face.
    for (MgBC bc : {MgBC::Dirichlet, MgBC::Neumann}) {
        ScopedBackend backend(Backend::SimGpu);
        Hier h = makeHier(16, true, true);
        CompositeMgOptions opt;
        opt.nranks = h.dms[0].numRanks();
        CompositeMg mg(h.geoms, h.bas, h.dms, 2, bc, opt);
        std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
        std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
        DeviceModel dev;
        dev.attach();
        const CompositeMgResult r = mg.solve(phi, rhs);
        const auto& ks = dev.kernelStats();
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(ks.count("mg_bc_fill"), 0u);
        EXPECT_EQ(ks.count("mg_smooth"), 1u);
        mg.fillCompositeGhosts(phi);
        dev.detach();
        ASSERT_EQ(ks.count("mg_bc_fill"), 1u);
        EXPECT_EQ(ks.at("mg_bc_fill").launches, 1);
    }
}

TEST(CompositeMg, FluxCorrectionIsOneLaunchPerColour) {
    // An L of refined blocks: the coarse cells in its inner corner take
    // flux corrections through two fine faces, so the items writing them
    // need two colours. One launch per colour must give the bits of one
    // launch per item, in its summation order, on every backend, and
    // Debug must find no two tags of a launch writing one cell.
    const std::vector<Box> ell{Box({4, 4, 4}, {7, 7, 7}), Box({8, 4, 4}, {11, 7, 7}),
                               Box({4, 8, 4}, {7, 11, 7})};
    Hier h = makeHierOn(16, ell, true, 4, 4);
    // Data without the manufactured solution's symmetries, so the two
    // contributions to an inner-corner cell differ and their order shows.
    for (MultiFab& phi : h.phi) {
        for (std::size_t q = 0; q < phi.size(); ++q) {
            auto a = phi.array(static_cast<int>(q));
            ParallelFor(phi.box(static_cast<int>(q)), [=](int i, int j, int k) {
                a(i, j, k) = std::sin(1.3 * i + 2.9 * j * j + 0.7 * k * k * k);
            });
        }
    }
    const MgCfBoundary cf(h.geoms[0], h.geoms[1], h.bas[1], h.dms[1], h.bas[0], h.dms[0], 2);
    ASSERT_GT(cf.numFluxColors(), 1);
    EXPECT_LT(static_cast<std::size_t>(cf.numFluxColors()), cf.fluxItems().size());
    h.phi[0].FillBoundary(0, 1, h.geoms[0].periodicity());
    h.phi[1].FillBoundary(0, 1, h.geoms[1].periodicity());
    {
        MgCfBoundary fill(h.geoms[0], h.geoms[1], h.bas[1], h.dms[1], h.bas[0], h.dms[0], 2);
        fill.prepare(h.phi[0]);
        fill.interpGhosts(h.phi[1]);
    }
    auto fresh = [&] {
        MultiFab dst(h.bas[0], h.dms[0], 1, 0);
        MultiFab::Copy(dst, h.rhs[0], 0, 0, 1, 0);
        return dst;
    };
    MultiFab ref = fresh();
    fluxMismatchPerItem(cf, ref, h.phi[1], h.phi[0], h.geoms[0], h.geoms[1], -1.0);
    const std::uint64_t href = hashMf(ref);
    EXPECT_NE(href, hashMf(fresh()));

    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    const int saved_checks = debug::limits().checks_per_kernel;
    debug::limits().checks_per_kernel = 0; // check every colour's launch
    for (Backend be : {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
        ScopedBackend backend(be);
        MultiFab dst = fresh();
        DeviceModel dev;
        dev.attach();
        cf.addFluxMismatch(dst, h.phi[1], h.phi[0], -1.0);
        dev.detach();
        EXPECT_EQ(hashMf(dst), href) << "backend " << static_cast<int>(be);
        if (be == Backend::SimGpu) {
            const auto& ks = dev.kernelStats();
            const auto it = ks.find("mg_flux_corr");
            EXPECT_EQ(it == ks.end() ? 0 : it->second.launches, cf.numFluxColors());
        }
    }
    debug::limits().checks_per_kernel = saved_checks;
    for (const auto& v : debug::violations())
        ADD_FAILURE() << v.source << ": " << v.kind << " " << v.detail;
    debug::clearViolations();
}

TEST(CompositeMg, GatheredTransfersAreOneLaunchSetPerCall) {
    // With aggregation off, every rung reads the rung below through its
    // gather plans. Each prolongation is then mf_lincomb, fab_setval, one
    // fab_copy (MG rungs do not overlap, so one colour) and
    // mg_prolong_add; each FMG interpolation is fab_setval, fab_copy and
    // one interp_conslin, for 8^3 or 4^3 boxes alike. The bits equal the
    // aggregated solve's, whose geometric rungs stage through a
    // ParallelCopy instead, on every backend; Debug checks every launch.
    auto solve = [](Backend be, bool aggregate, int max_grid,
                    std::vector<std::string>* kernels) {
        ScopedBackend backend(be);
        Hier h = makeHier(16, true, true, 4, max_grid);
        CompositeMgOptions opt;
        opt.aggregate_coarse = aggregate;
        opt.nranks = h.dms[0].numRanks();
        CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Dirichlet, opt);
        EXPECT_EQ(mg.aggregatedRungs() > 0, aggregate);
        std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
        std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
        EventSubscription sub([&](const Event& e) {
            if (const auto* l = std::get_if<LaunchRecord>(&e); l && kernels)
                kernels->push_back(l->info.name);
        });
        const CompositeMgResult r = mg.solve(phi, rhs);
        sub.reset();
        EXPECT_TRUE(r.converged);
        return std::tuple{hashLevels(h.phi), r.fmg_cycles * (mg.numRungs() - 1)};
    };
    const std::uint64_t href = std::get<0>(solve(Backend::Serial, true, 8, nullptr));
    CheckEveryLaunch check;
    for (Backend be : {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
        EXPECT_EQ(std::get<0>(solve(be, false, 8, nullptr)), href)
            << "backend " << static_cast<int>(be);
    }
    for (const int max_grid : {8, 4}) {
        SCOPED_TRACE("max_grid " + std::to_string(max_grid));
        std::vector<std::string> k;
        const auto [hash, fmg_interps] = solve(Backend::SimGpu, false, max_grid, &k);
        std::int64_t prolongs = 0, interps = 0;
        for (std::size_t t = 3; t < k.size(); ++t) {
            if (k[t] == "mg_prolong_add") {
                ++prolongs;
                EXPECT_EQ(k[t - 1], "fab_copy");
                EXPECT_EQ(k[t - 2], "fab_setval");
                EXPECT_EQ(k[t - 3], "mf_lincomb");
            } else if (k[t] == "interp_conslin") {
                ++interps;
                EXPECT_EQ(k[t - 1], "fab_copy");
                EXPECT_EQ(k[t - 2], "fab_setval");
            }
        }
        EXPECT_GT(prolongs, 0);
        EXPECT_EQ(interps, fmg_interps);
    }
}

TEST(CompositeMg, ExchangeFreeRungsMatchSplitPhaseBits) {
    // By default the geometric rungs aggregate onto one box, and a one-box
    // rung even in every periodic direction sweeps without exchanges.
    // Chopped into 2^3 boxes, the same rungs take the split-phase path;
    // the bits must agree. A 12^3 periodic domain bottoms out at 3^3,
    // whose periodic image has the sweeping colour, so that rung keeps
    // the split-phase path.
    struct Case {
        int n;
        MgBC bc;
        int min_level_side;
        int exchange_free; // rungs, with aggregation on
    };
    const Case cases[] = {{16, MgBC::Dirichlet, 4, 2},
                          {16, MgBC::Neumann, 4, 2},
                          {16, MgBC::Periodic, 4, 2},
                          {12, MgBC::Periodic, 2, 1}};
    for (Backend be : {Backend::Serial, Backend::OpenMP}) {
        ScopedBackend backend(be);
        for (const Case& c : cases) {
            auto run = [&](bool one_box) {
                Hier h = makeHier(c.n, true, c.bc != MgBC::Periodic);
                CompositeMgOptions opt;
                opt.nranks = h.dms[0].numRanks();
                opt.min_level_side = c.min_level_side;
                if (!one_box) {
                    opt.aggregate_coarse = false;
                    opt.max_grid_size = 2;
                }
                CompositeMg mg(h.geoms, h.bas, h.dms, 2, c.bc, opt);
                EXPECT_EQ(mg.exchangeFreeRungs(), one_box ? c.exchange_free : 0);
                std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
                std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};
                const CompositeMgResult r = mg.solve(phi, rhs);
                EXPECT_TRUE(r.converged);
                return std::pair{hashLevels(h.phi), r.sweeps};
            };
            EXPECT_EQ(run(true), run(false))
                << "n " << c.n << " bc " << static_cast<int>(c.bc) << " backend "
                << static_cast<int>(be);
        }
    }
}

// ---------------------------------------------------------------------
// Castro integration: GravityType::Poisson on the AMR driver
// ---------------------------------------------------------------------

namespace {

struct TmpDir {
    std::string path;
    // Per process: ctest runs a test's plain, debug-backend and
    // determinism entries concurrently.
    explicit TmpDir(const std::string& name)
        : path("/tmp/exastro_gravity_" + std::to_string(getpid()) + "_" + name) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TmpDir() { std::filesystem::remove_all(path); }
};

std::uint64_t hashAmrState(const castro::Castro& a) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int lev = 0; lev <= a.finestLevel(); ++lev)
        hashMfInto(h, a.state(lev));
    return h;
}

struct GravityBlast {
    ReactionNetwork net = makeIgnitionSimple();
    std::unique_ptr<castro::Castro> amr;
};

// The AMR blast of the subcycle/resilience suites with composite-grid
// self-gravity switched on: tags follow the hot region, so regrids move
// the fine level mid-run and the gravity solver has to rebuild its
// ladder (noteRegrid) without perturbing the trajectory.
GravityBlast makeGravityBlast(int ncell = 16) {
    GravityBlast b;
    const Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    AmrInfo info;
    info.max_level = 1;
    info.ref_ratio = 2;
    info.max_grid_size = 8;
    info.blocking_factor = 4;
    info.n_error_buf = 1;
    info.nranks = 4;

    castro::CastroOptions opt;
    opt.bc = DomainBC::allOutflow();
    opt.cfl = 0.3;
    opt.gravity = castro::GravityType::Poisson;
    opt.guard.enabled = true;

    const Real r_init = 2.0 / ncell;
    const Real e_in =
        1.0 / ((4.0 / 3.0) * constants::pi * r_init * r_init * r_init);
    castro::Castro::InitFn init = [=](Real x, Real y, Real z) {
        castro::Castro::InitialZone zn;
        zn.rho = 1.0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) +
                                 (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r_init ? 0.4 * e_in : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    castro::Castro::TagFn tag = [](int /*lev*/, const Geometry&,
                                   const MultiFab& s, MultiFab& tags) {
        const Real thresh = 1.0e-8;
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)),
                        [=](int i, int j, int k) {
                if (u(i, j, k, castro::StateLayout::UTEMP) > thresh)
                    t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    b.amr = std::make_unique<castro::Castro>(geom, info, b.net, eos, opt,
                                             std::move(init),
                                             std::move(tag));
    b.amr->regrid_interval = 2;
    b.amr->init();
    return b;
}

} // namespace

TEST(GravityAmr, BlastAcrossRegridBitIdenticalAcrossBackends) {
    // Five steps at regrid_interval 2: the hierarchy regrids mid-run, the
    // composite ladder rebuilds, and the final state must be bit-identical
    // on every backend — and on a repeat run of the same backend.
    std::vector<std::uint64_t> hashes;
    std::int64_t vcycles = 0;
    for (Backend bk : {Backend::Serial, Backend::Serial, Backend::OpenMP,
                       Backend::SimGpu, Backend::Debug}) {
        ScopedBackend backend(bk);
        GravityBlast b = makeGravityBlast();
        for (int i = 0; i < 5; ++i) b.amr->step(b.amr->estimateDt());
        ASSERT_GT(b.amr->finestLevel(), 0);
        hashes.push_back(hashAmrState(*b.amr));
        vcycles = b.amr->gravity().mgTotals().vcycles;
    }
    EXPECT_GT(vcycles, 0);
    for (std::size_t i = 1; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[0], hashes[i]) << "run " << i;
}

TEST(GravityAmr, ResidentPartitionsFollowTheLiveHierarchy) {
    // Every regrid mints fresh fine layouts and the gravity ladder rebuilds
    // on them. The partitions of the replaced layouts die with them, so the
    // resident count stays that of the live hierarchy instead of growing
    // by one set per regrid interval.
    auto& cache = CopierCache::instance();
    cache.clear();
    {
        GravityBlast b = makeGravityBlast(); // regrid_interval 2
        std::vector<std::size_t> resident;
        for (int interval = 0; interval < 3; ++interval) {
            for (int i = 0; i < 2; ++i) b.amr->step(b.amr->estimateDt());
            ASSERT_GT(b.amr->finestLevel(), 0);
            resident.push_back(cache.stats().partitions);
        }
        EXPECT_GT(resident[0], 0u);
        EXPECT_EQ(resident[1], resident[0]);
        EXPECT_EQ(resident[2], resident[0]);

        // One more step rebuilds the ladder on the last regrid's layouts.
        // What stays resident is exactly what a step of the live
        // hierarchy builds from an empty cache.
        b.amr->step(b.amr->estimateDt());
        const std::size_t after_run = cache.stats().partitions;
        cache.clear();
        b.amr->regrid_interval = 0;
        b.amr->step(b.amr->estimateDt());
        EXPECT_EQ(cache.stats().partitions, after_run);
    }
    EXPECT_EQ(cache.stats().partitions, 0u);
}

TEST(GravityAmr, RankFailureRecoveryBitIdentical) {
    // A supervised run that loses a rank after gravity-coupled steps and
    // regrids must replay to exactly the bytes of an uninterrupted run:
    // solves are cold (phi is not part of the trajectory), so restore +
    // replay re-derives every potential bit for bit. The supervisor's summary
    // carries the lifetime multigrid counters.
    fault::disarmAll();
    const int nsteps = 6;

    GravityBlast baseline = makeGravityBlast();
    for (int i = 0; i < nsteps; ++i)
        baseline.amr->step(baseline.amr->estimateDt());

    TmpDir tmp("rank_failure");
    GravityBlast survivor = makeGravityBlast();
    resilience::SupervisorOptions opt;
    opt.checkpoint.dir = tmp.path;
    // Checkpoint at step 0 only (next due at 6): the kill at heartbeat 4
    // sees grids regridded since, forcing remake-on-restore before the
    // gravity ladder is rebuilt for replay.
    opt.checkpoint.interval_hint = 6;
    opt.nranks = 4;
    resilience::ResilienceSupervisor sup(*survivor.amr, opt);
    {
        fault::Spec s;
        s.start = 4;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 1);
    EXPECT_GT(sup.report().replay_steps, 0);

    ASSERT_EQ(survivor.amr->finestLevel(), baseline.amr->finestLevel());
    EXPECT_EQ(hashAmrState(*survivor.amr), hashAmrState(*baseline.amr));
    EXPECT_EQ(survivor.amr->time(), baseline.amr->time());

    const std::string summary = sup.summary();
    EXPECT_NE(summary.find("mg:"), std::string::npos) << summary;
    fault::disarmAll();
}
