#include "castro/react.hpp"

#include "core/executor.hpp"
#include "core/parallel_for.hpp"

#include <algorithm>
#include <vector>

namespace exa::castro {

BurnGridStats burnGrid(MultiFab& state, const BurnZoneIO& io,
                       const ReactionNetwork& net, const Eos& eos, Real dt,
                       const ReactOptions& opt, CostMonitor* cost, int level,
                       BatchBurnReport* report) {
    // The gather below fills kMaxStackSpec-wide stack scratch before the
    // engine runs, so the width check comes first.
    requireBurnableWidth(net, "burnGrid");
    const int nspec = net.nspec();
    const int nfabs = static_cast<int>(state.size());
    BurnGridStats stats;

    // Pass 1 (host): load every zone in traversal order (fab, then k/j/i)
    // and apply the skip rule, so gather index order == traversal order
    // and first_failure is the traversal-first failing zone.
    struct ZoneRef {
        int i, j, k;
    };
    std::vector<ZoneRef> refs;
    std::vector<std::int64_t> fab_begin(nfabs + 1, 0); // refs range per fab
    std::vector<std::int64_t> fab_skipped(nfabs, 0);
    Real x[kMaxStackSpec];
    for (int f = 0; f < nfabs; ++f) {
        fab_begin[f] = static_cast<std::int64_t>(refs.size());
        auto u = state.const_array(f);
        const Box& vb = state.box(f);
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    ++stats.zones;
                    Real T = 0.0;
                    const Real rho = io.load(u, i, j, k, T, x);
                    if (T < opt.T_min || rho < opt.rho_min) {
                        ++fab_skipped[f];
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
    const BurnZoneIO* iop = &io;

    // Pass 2: gather fab state into the SoA buffer — one streaming launch
    // per fab (each gathered zone writes only its own slots, so the kernel
    // is backend-safe).
    const KernelInfo gather_ki =
        KernelInfo::streaming("burn_gather", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
        auto u = state.const_array(f);
        const ZoneRef* rp = refs.data();
        Real* rho_p = batch.rho.data();
        Real* T_p = batch.T.data();
        Real* X_p = batch.X.data();
        ParallelFor(gather_ki, hi - lo, [=](std::int64_t q) {
            const std::int64_t g = lo + q;
            const ZoneRef& zr = rp[g];
            Real xz[kMaxStackSpec];
            rho_p[g] = iop->load(u, zr.i, zr.j, zr.k, T_p[g], xz);
            for (int n = 0; n < nspec; ++n) X_p[n * nzones + g] = xz[n];
        });
    }

    // Burn the gather.
    const BatchBurnReport rep = burnBatch(net, eos, opt.batch, batch, dt, opt.ode);
    if (report != nullptr) *report = rep;

    // Pass 3: scatter — successful zones write their own (i,j,k) back.
    const KernelInfo scatter_ki =
        KernelInfo::streaming("burn_scatter", 8.0 * (nspec + 2) * 2);
    for (int f = 0; f < nfabs; ++f) {
        const std::int64_t lo = fab_begin[f], hi = fab_begin[f + 1];
        if (lo == hi) continue;
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
            Real xz[kMaxStackSpec];
            for (int n = 0; n < nspec; ++n) xz[n] = Xo_p[n * nzones + g];
            iop->store(u, zr.i, zr.j, zr.k, rho_p[g], To_p[g], xz, e_p[g]);
        });
    }

    // Bookkeeping in traversal order: a skipped zone counts one step; a
    // failure counts steps+1 and leaves max_steps alone; a success counts
    // max(steps, 1). The first failing gather index is the traversal-first
    // failure.
    std::vector<std::int64_t> fab_steps(nfabs, 0);
    for (int f = 0; f < nfabs; ++f) {
        fab_steps[f] = fab_skipped[f];
        stats.total_steps += fab_skipped[f];
        if (fab_skipped[f] > 0) {
            stats.max_steps = std::max<std::int64_t>(stats.max_steps, 1);
        }
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
        for (int f = 0; f < nfabs; ++f) {
            cost->addWork(level, f, static_cast<double>(fab_steps[f]));
        }
    }
    return stats;
}

BurnGridStats reactState(MultiFab& state, const ReactionNetwork& net, const Eos& eos,
                         Real dt, const ReactOptions& opt, CostMonitor* cost,
                         int level, BatchBurnReport* report) {
    const int nspec = net.nspec();
    BurnZoneIO io;
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
    io.store = [nspec](const Array4<Real>& u, int i, int j, int k, Real rho, Real T,
                       const Real* X, Real e_nuc) {
        for (int n = 0; n < nspec; ++n) u(i, j, k, StateLayout::UFS + n) = rho * X[n];
        u(i, j, k, StateLayout::UEDEN) += rho * e_nuc;
        u(i, j, k, StateLayout::UTEMP) = T;
    };
    return burnGrid(state, io, net, eos, dt, opt, cost, level, report);
}

} // namespace exa::castro
