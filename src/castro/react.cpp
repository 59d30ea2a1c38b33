#include "castro/react.hpp"

#include "core/executor.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace exa::castro {

namespace {

// The per-zone driver: one fab at a time, one zone at a time, one device
// launch per fab priced with the fab's measured step distribution.
BurnGridStats reactSerial(MultiFab& state, const ReactionNetwork& net,
                          const Eos& eos, Real dt, const ReactOptions& opt,
                          CostMonitor* cost, int level) {
    const int nspec = net.nspec();
    BurnGridStats stats;
    // Size the scratch to the network instead of a fixed stack buffer, so
    // large networks can't overrun it; hoist the ODE, integrator
    // workspace, and result out of the zone loops so the burn path makes
    // no per-zone heap allocations.
    std::vector<Real> X(nspec);
    BurnOde ode(net, eos, 0.0);
    BurnWorkspace ws;
    BurnResult r;

    for (std::size_t f = 0; f < state.size(); ++f) {
        CostMonitor::ScopedFabTimer fab_timer(cost, level, static_cast<int>(f));
        const std::int64_t steps_before = stats.total_steps;
        auto u = state.array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        std::int64_t fab_max = 0; // largest per-zone step count, failures too

        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    ++stats.zones;
                    const Real rho = u(i, j, k, StateLayout::URHO);
                    const Real T = u(i, j, k, StateLayout::UTEMP);
                    if (T < opt.T_min || rho < opt.rho_min) {
                        fab_max = std::max<std::int64_t>(fab_max, 1); // skip: cheap
                        ++stats.total_steps;
                        stats.max_steps = std::max<std::int64_t>(stats.max_steps, 1);
                        continue;
                    }
                    for (int n = 0; n < nspec; ++n) {
                        X[n] = std::clamp(u(i, j, k, StateLayout::UFS + n) / rho,
                                          Real(0), Real(1));
                    }
                    burnZoneInto(ode, rho, T, X.data(), dt, opt.ode, ws, r);
                    if (!r.success) {
                        ++stats.failures;
                        if (!stats.first_failure.valid) {
                            stats.first_failure = {true, i, j, k,
                                                   static_cast<int>(f), -1, rho, T};
                        }
                        fab_max = std::max(fab_max, r.stats.steps + 1);
                        stats.total_steps += r.stats.steps + 1;
                        continue;
                    }
                    for (int n = 0; n < nspec; ++n) {
                        u(i, j, k, StateLayout::UFS + n) = rho * r.X[n];
                    }
                    u(i, j, k, StateLayout::UEDEN) += rho * r.e_nuc;
                    u(i, j, k, StateLayout::UTEMP) = r.T;
                    const std::int64_t steps = std::max<std::int64_t>(r.stats.steps, 1);
                    fab_max = std::max(fab_max, steps);
                    stats.total_steps += steps;
                    stats.max_steps = std::max(stats.max_steps, steps);
                }
            }
        }

        // Report the burn launch to the simulated device, priced with the
        // fab's zone-to-zone step imbalance (max / mean). The step counts
        // are integers, so their double sum is exact in any order.
        const std::int64_t fab_zones = vb.numPts();
        if (ExecConfig::accountsLaunches() && fab_zones > 0) {
            const double mean =
                static_cast<double>(stats.total_steps - steps_before) /
                static_cast<double>(fab_zones);
            const double imbalance =
                mean > 0 ? static_cast<double>(fab_max) / mean : 1.0;
            LaunchRecord rec;
            rec.info = burnKernelInfo(nspec, std::max(mean, 1.0), imbalance);
            rec.zones = fab_zones;
            rec.ncomp = 1;
            rec.stream = ExecConfig::currentStream();
            ExecConfig::notifyLaunch(rec);
        }

        if (cost != nullptr) {
            // Burn work channel: integrator steps this fab consumed. The
            // wall-time channel is credited by fab_timer's destructor.
            cost->addWork(level, static_cast<int>(f),
                          static_cast<double>(stats.total_steps - steps_before));
        }
    }
    return stats;
}

// The batched driver: gather every reacting zone of the MultiFab (across
// all fabs) into one flat SoA buffer, hand it to BatchBurner (stiffness
// sort, fused device batches, optional host tail), and scatter results
// back. Per-zone arithmetic — and therefore every output value and every
// bookkeeping total — is bit-identical to reactSerial; only the launch
// structure the device model sees differs.
BurnGridStats reactBatched(MultiFab& state, const ReactionNetwork& net,
                           const Eos& eos, Real dt, const ReactOptions& opt,
                           CostMonitor* cost, int level,
                           BatchBurnReport* report) {
    const int nspec = net.nspec();
    const int nfabs = static_cast<int>(state.size());
    BurnGridStats stats;

    const auto t_begin = std::chrono::steady_clock::now();

    // Pass 1 (host): find the reacting zones, in the serial traversal
    // order (fab, then k/j/i), so gather index order == serial zone order
    // and first-failure semantics carry over exactly.
    struct ZoneRef {
        int i, j, k;
    };
    std::vector<ZoneRef> refs;
    std::vector<std::int64_t> fab_begin(nfabs + 1, 0); // refs range per fab
    std::vector<std::int64_t> fab_skipped(nfabs, 0);
    for (int f = 0; f < nfabs; ++f) {
        fab_begin[f] = static_cast<std::int64_t>(refs.size());
        auto u = state.array(f);
        const Box& vb = state.box(f);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    ++stats.zones;
                    const Real rho = u(i, j, k, StateLayout::URHO);
                    const Real T = u(i, j, k, StateLayout::UTEMP);
                    if (T < opt.T_min || rho < opt.rho_min) {
                        ++fab_skipped[f]; // skip: trivially cheap, 1 step
                        ++stats.total_steps;
                        stats.max_steps = std::max<std::int64_t>(stats.max_steps, 1);
                        continue;
                    }
                    refs.push_back({i, j, k});
                }
            }
        }
    }
    fab_begin[nfabs] = static_cast<std::int64_t>(refs.size());

    const std::int64_t nzones = static_cast<std::int64_t>(refs.size());
    BurnBatch batch;
    batch.resize(nspec, nzones);

    // Pass 2: gather fab state into the SoA buffer — per fab one streaming
    // launch on that fab's stream (each gathered zone writes only its own
    // slots, so the kernel is backend-safe).
    const KernelInfo gather_ki =
        KernelInfo::streaming("burn_gather", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
        StreamScope stream;
        stream.useFab(static_cast<std::size_t>(f));
        auto u = state.array(f);
        const ZoneRef* rp = refs.data();
        Real* rho_p = batch.rho.data();
        Real* T_p = batch.T.data();
        Real* X_p = batch.X.data();
        ParallelFor(gather_ki, hi - lo, [=](std::int64_t q) {
            const std::int64_t g = lo + q;
            const ZoneRef& zr = rp[g];
            const Real rho = u(zr.i, zr.j, zr.k, StateLayout::URHO);
            rho_p[g] = rho;
            T_p[g] = u(zr.i, zr.j, zr.k, StateLayout::UTEMP);
            for (int n = 0; n < nspec; ++n) {
                X_p[n * nzones + g] = std::clamp(
                    u(zr.i, zr.j, zr.k, StateLayout::UFS + n) / rho, Real(0),
                    Real(1));
            }
        });
    }

    // Burn the gather.
    BatchBurner burner(net, eos, opt.batch);
    burner.run(batch, dt, opt.ode);
    if (report != nullptr) *report = burner.report();

    // Pass 3: scatter — successful zones write their own (i,j,k) back.
    const KernelInfo scatter_ki =
        KernelInfo::streaming("burn_scatter", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
        StreamScope stream;
        stream.useFab(static_cast<std::size_t>(f));
        auto u = state.array(f);
        const ZoneRef* rp = refs.data();
        const Real* rho_p = batch.rho.data();
        const Real* To_p = batch.T_out.data();
        const Real* Xo_p = batch.X_out.data();
        const Real* e_p = batch.e_nuc.data();
        const char* ok_p = batch.success.data();
        ParallelFor(scatter_ki, hi - lo, [=](std::int64_t q) {
            const std::int64_t g = lo + q;
            if (!ok_p[g]) return;
            const ZoneRef& zr = rp[g];
            const Real rho = rho_p[g];
            for (int n = 0; n < nspec; ++n) {
                u(zr.i, zr.j, zr.k, StateLayout::UFS + n) =
                    rho * Xo_p[n * nzones + g];
            }
            u(zr.i, zr.j, zr.k, StateLayout::UEDEN) += rho * e_p[g];
            u(zr.i, zr.j, zr.k, StateLayout::UTEMP) = To_p[g];
        });
    }

    // Bookkeeping, replicating the serial semantics exactly: failures
    // count steps+1 and leave max_steps alone; successes count
    // max(steps, 1). Gather order is serial order, so the first failing
    // gather index is the serial first_failure.
    std::vector<std::int64_t> fab_steps(nfabs, 0);
    for (int f = 0; f < nfabs; ++f) {
        fab_steps[f] = fab_skipped[f];
        for (std::int64_t g = fab_begin[f]; g < fab_begin[f + 1]; ++g) {
            if (!batch.success[g]) {
                ++stats.failures;
                if (!stats.first_failure.valid) {
                    stats.first_failure = {true,
                                           refs[g].i,
                                           refs[g].j,
                                           refs[g].k,
                                           f,
                                           -1,
                                           batch.rho[g],
                                           batch.T[g]};
                }
                fab_steps[f] += batch.steps[g] + 1;
                stats.total_steps += batch.steps[g] + 1;
                continue;
            }
            const std::int64_t steps = std::max<std::int64_t>(batch.steps[g], 1);
            fab_steps[f] += steps;
            stats.total_steps += steps;
            stats.max_steps = std::max(stats.max_steps, steps);
        }
    }

    if (cost != nullptr) {
        // The batch burns all fabs in one fused pass, so there is no
        // per-fab timer scope; credit each fab's work channel with its
        // measured steps and split the measured wall time in proportion.
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t_begin)
                .count();
        for (int f = 0; f < nfabs; ++f) {
            cost->addWork(level, f, static_cast<double>(fab_steps[f]));
            if (stats.total_steps > 0) {
                cost->addTime(level, f,
                              wall * static_cast<double>(fab_steps[f]) /
                                  static_cast<double>(stats.total_steps));
            }
        }
    }
    return stats;
}

} // namespace

BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt, CostMonitor* cost,
                         int level, BatchBurnReport* report) {
    if (opt.batched) {
        return reactBatched(state, net, eos, dt, opt, cost, level, report);
    }
    return reactSerial(state, net, eos, dt, opt, cost, level);
}

} // namespace exa::castro
