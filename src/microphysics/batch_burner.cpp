#include "microphysics/batch_burner.hpp"

#include "core/parallel_for.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

namespace exa {

namespace {

KernelInfo stiffnessKernelInfo(int nspec) {
    KernelInfo ki;
    ki.name = "burn_stiffness";
    // One RHS + EOS evaluation per zone.
    ki.flops_per_zone = 60.0 * nspec * nspec + 800.0;
    ki.bytes_per_zone = 8.0 * (nspec + 3);
    ki.regs_per_thread = 40 + 2 * nspec;
    return ki;
}

} // namespace

void requireBurnableWidth(const ReactionNetwork& net, const char* who) {
    if (net.nspec() > kMaxStackSpec) {
        throw std::invalid_argument(
            std::string(who) + ": network '" + net.name() + "' has " +
            std::to_string(net.nspec()) + " species; the burn engine holds at most " +
            std::to_string(kMaxStackSpec));
    }
}

BatchBurnReport burnBatch(const ReactionNetwork& net, const Eos& eos,
                          const BatchBurnOptions& opt, BurnBatch& b, Real dt,
                          const OdeOptions& ode_opt) {
    requireBurnableWidth(net, "burnBatch");
    const int nspec = net.nspec();
    const std::int64_t n = b.nzones;
    BatchBurnReport report;
    report.gathered = n;
    if (n == 0) return report;

    // --- Stiffness estimate: dt in units of the burning timescale --------
    //
    // est = dt / (cv T / edot): how many thermal e-folds this zone would
    // burn through in dt. Monotone in the BDF step count the zone will
    // need, which is all sorting and tail routing require. One fused
    // streaming pass over the gather (its own named launch).
    std::vector<double> stiffness(n, 0.0);
    if (opt.sort_by_stiffness || opt.hybrid_cpu_tail) {
        const Real* rho_p = b.rho.data();
        const Real* T_p = b.T.data();
        const Real* X_p = b.X.data();
        double* est_p = stiffness.data();
        ParallelFor(stiffnessKernelInfo(nspec), n, [=, &net, &eos](std::int64_t z) {
            Real x[kMaxStackSpec], y[kMaxStackSpec], dy[kMaxStackSpec];
            for (int s = 0; s < nspec; ++s) x[s] = X_p[s * n + z];
            net.xToY(x, y);
            const Real T = T_p[z];
            Real edot = 0.0;
            net.ydot(rho_p[z], T, y, dy, edot);
            if (edot <= 0.0) {
                est_p[z] = 0.0;
                return;
            }
            EosState s;
            s.rho = rho_p[z];
            s.T = T;
            s.abar = net.abar(x);
            s.ye = net.ye(x);
            eos.rhoT(s);
            est_p[z] = dt * edot / (s.cv * T);
        });
    }

    // --- Sort and split ---------------------------------------------------
    std::vector<std::int64_t> order(n);
    for (std::int64_t z = 0; z < n; ++z) order[z] = z;
    if (opt.sort_by_stiffness) {
        const double* est = stiffness.data();
        std::stable_sort(order.begin(), order.end(),
                         [est](std::int64_t a, std::int64_t c) {
                             return est[a] < est[c];
                         });
    }
    for (double e : stiffness) {
        report.stiffness_max = std::max(report.stiffness_max, e);
    }
    {
        // Median over a scratch copy (order may be unsorted).
        std::vector<double> med = stiffness;
        std::nth_element(med.begin(), med.begin() + n / 2, med.end());
        report.stiffness_median = med[n / 2];
    }

    std::int64_t split = n; // first tail position in order
    if (opt.hybrid_cpu_tail) {
        const double cut = std::max(opt.tail_factor * report.stiffness_median,
                                    opt.tail_min_stiffness);
        report.stiffness_tail_cut = cut;
        // Stable partition: device zones first, tail zones after, both in
        // processing order. With the sort on this is just a split point.
        std::stable_partition(order.begin(), order.end(),
                              [&](std::int64_t z) { return stiffness[z] <= cut; });
        split = 0;
        while (split < n && stiffness[order[split]] <= cut) ++split;
    }
    report.device_zones = split;
    report.tail_zones = n - split;

    // --- The per-zone loop ------------------------------------------------
    //
    // Integrates the zones order[first, last) one at a time through one
    // workspace, writing each zone's outputs; returns the summed and the
    // largest max(steps, 1) of the range.
    BurnOde ode(net, eos, 0.0);
    BurnWorkspace ws;
    BurnResult result;
    std::vector<Real> x(nspec);
    struct RangeSteps {
        std::int64_t sum = 0, max = 0;
    };
    auto burnRange = [&](std::int64_t first, std::int64_t last) {
        RangeSteps rs;
        for (std::int64_t p = first; p < last; ++p) {
            const std::int64_t z = order[p];
            for (int s = 0; s < nspec; ++s) x[s] = b.X[s * n + z];
            burnZoneInto(ode, b.rho[z], b.T[z], x.data(), dt, ode_opt, ws, result);
            b.T_out[z] = result.T;
            for (int s = 0; s < nspec; ++s) b.Xout(s)[z] = result.X[s];
            b.e_nuc[z] = result.e_nuc;
            b.steps[z] = result.stats.steps;
            b.success[z] = result.success ? 1 : 0;
            const std::int64_t zs = std::max<std::int64_t>(result.stats.steps, 1);
            rs.sum += zs;
            rs.max = std::max(rs.max, zs);
        }
        return rs;
    };

    // --- Device batches ---------------------------------------------------
    //
    // Each batch is priced as one fused launch with the batch's own mean
    // work and batch-local imbalance — after the sort, batch-mates cost
    // alike, so no warp-stall tail from mixing quiescent and igniting
    // zones. Balanced batch sizes: round the zone count to a whole number
    // of ~batch_size launches rather than letting a sliver trail — a
    // launch of a few (stiff, post-sort) zones is the worst thing one can
    // hand the device model's latency-hiding ramp.
    const std::int64_t bs = std::max(1, opt.batch_size);
    const std::int64_t nb =
        split > 0 ? std::max<std::int64_t>(1, (split + bs / 2) / bs) : 0;
    for (std::int64_t batch_idx = 0; batch_idx < nb; ++batch_idx) {
        const std::int64_t start = batch_idx * split / nb;
        const std::int64_t count = (batch_idx + 1) * split / nb - start;
        if (count == 0) continue;
        const RangeSteps rs = burnRange(start, start + count);
        report.device_steps += rs.sum;
        ++report.batches;

        if (ExecConfig::accountsLaunches()) {
            const double mean = static_cast<double>(rs.sum) / static_cast<double>(count);
            LaunchRecord rec;
            rec.info = burnKernelInfo(nspec, std::max(mean, 1.0),
                                      static_cast<double>(rs.max) / std::max(mean, 1.0));
            rec.info.name = "nuclear_burn_batch";
            rec.zones = count;
            rec.ncomp = 1;
            events::publish(rec);
        }
    }

    // --- Host tail --------------------------------------------------------
    //
    // The stiff outliers integrate on the host (no device launch: the model
    // treats them as CPU work concurrent with the device batches, the
    // paper's Section VI split). Wall time is reported so callers can
    // price the host side honestly.
    if (split < n) {
        const auto t0 = std::chrono::steady_clock::now();
        report.tail_steps = burnRange(split, n).sum;
        report.tail_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    }
    return report;
}

} // namespace exa
