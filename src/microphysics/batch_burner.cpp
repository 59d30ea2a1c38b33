#include "microphysics/batch_burner.hpp"

#include "core/parallel_for.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

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

BatchBurner::BatchBurner(const ReactionNetwork& net, const Eos& eos,
                         const BatchBurnOptions& opt)
    : m_net(net), m_eos(eos), m_opt(opt), m_ode(net, eos, 0.0) {}

void BatchBurner::run(BurnBatch& b, Real dt, const OdeOptions& ode_opt) {
    const int nspec = m_net.nspec();
    const std::int64_t n = b.nzones;
    m_report = BatchBurnReport{};
    m_report.gathered = n;
    if (n == 0) return;

    // --- Stiffness estimate: dt in units of the burning timescale --------
    //
    // est = dt / (cv T / edot): how many thermal e-folds this zone would
    // burn through in dt. Monotone in the BDF step count the zone will
    // need, which is all sorting and tail routing require. One fused
    // streaming pass over the gather (its own named launch).
    m_stiffness.resize(n);
    const bool need_est = m_opt.sort_by_stiffness || m_opt.hybrid_cpu_tail;
    if (need_est && nspec <= kMaxStackSpec) {
        const Real* rho_p = b.rho.data();
        const Real* T_p = b.T.data();
        const Real* X_p = b.X.data();
        double* est_p = m_stiffness.data();
        const ReactionNetwork& net = m_net;
        const Eos& eos = m_eos;
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
    } else if (need_est) {
        std::vector<Real> x(nspec);
        for (std::int64_t z = 0; z < n; ++z) {
            for (int s = 0; s < nspec; ++s) x[s] = b.X[s * n + z];
            m_stiffness[z] =
                dt / burningTimescale(m_net, m_eos, b.rho[z], b.T[z], x.data());
        }
    } else {
        std::fill(m_stiffness.begin(), m_stiffness.end(), 0.0);
    }

    // --- Sort and split ---------------------------------------------------
    m_order.resize(n);
    for (std::int64_t z = 0; z < n; ++z) m_order[z] = z;
    if (m_opt.sort_by_stiffness) {
        const double* est = m_stiffness.data();
        std::stable_sort(m_order.begin(), m_order.end(),
                         [est](std::int64_t a, std::int64_t c) {
                             return est[a] < est[c];
                         });
    }
    for (double e : m_stiffness) {
        m_report.stiffness_max = std::max(m_report.stiffness_max, e);
    }
    {
        // Median over a scratch copy (m_order may be unsorted).
        std::vector<double> med = m_stiffness;
        std::nth_element(med.begin(), med.begin() + n / 2, med.end());
        m_report.stiffness_median = med[n / 2];
    }

    double cut = 0.0;
    std::int64_t split = n; // first tail position in m_order
    if (m_opt.hybrid_cpu_tail) {
        cut = std::max(m_opt.tail_factor * m_report.stiffness_median,
                       m_opt.tail_min_stiffness);
        m_report.stiffness_tail_cut = cut;
        // Stable partition: device zones first, tail zones after, both in
        // processing order. With the sort on this is just a split point.
        std::stable_partition(m_order.begin(), m_order.end(),
                              [&](std::int64_t z) { return m_stiffness[z] <= cut; });
        split = 0;
        while (split < n && m_stiffness[m_order[split]] <= cut) ++split;
    }
    m_report.device_zones = split;
    m_report.tail_zones = n - split;

    // --- Device batches ---------------------------------------------------
    //
    // Each batch is one fused launch: the Newton systems of its zones
    // factor into one contiguous BatchedDenseLU slab, and the launch is
    // priced with the batch's own mean work and batch-local imbalance —
    // after the sort, batch-mates cost alike, so no warp-stall tail from
    // mixing quiescent and igniting zones.
    const std::int64_t bs = std::max(1, m_opt.batch_size);
    OdeOptions zopt = ode_opt;
    const bool use_batched_lu = !zopt.use_sparse;
    std::vector<Real> x(nspec);
    // Balanced batch sizes: round the zone count to a whole number of
    // ~batch_size launches rather than letting a sliver trail — a
    // launch of a few (stiff, post-sort) zones is the worst thing one
    // can hand the device model's latency-hiding ramp.
    const std::int64_t nb =
        split > 0 ? std::max<std::int64_t>(1, (split + bs / 2) / bs) : 0;
    for (std::int64_t batch_idx = 0; batch_idx < nb; ++batch_idx) {
        const std::int64_t start = batch_idx * split / nb;
        const std::int64_t count = (batch_idx + 1) * split / nb - start;
        if (count == 0) continue;
        if (use_batched_lu) {
            m_batched_lu.resize(nspec + 1, static_cast<int>(count));
        }
        std::int64_t batch_steps = 0, batch_max = 0;
        for (std::int64_t p = 0; p < count; ++p) {
            const std::int64_t z = m_order[start + p];
            for (int s = 0; s < nspec; ++s) x[s] = b.X[s * n + z];
            m_ws.bdf.batched_lu = use_batched_lu ? &m_batched_lu : nullptr;
            m_ws.bdf.batched_slot = static_cast<int>(p);
            burnZoneInto(m_ode, b.rho[z], b.T[z], x.data(), dt, zopt, m_ws,
                         m_result);
            b.T_out[z] = m_result.T;
            for (int s = 0; s < nspec; ++s) b.Xout(s)[z] = m_result.X[s];
            b.e_nuc[z] = m_result.e_nuc;
            b.steps[z] = m_result.stats.steps;
            b.success[z] = m_result.success ? 1 : 0;
            const std::int64_t zs = std::max<std::int64_t>(m_result.stats.steps, 1);
            batch_steps += zs;
            batch_max = std::max(batch_max, zs);
        }
        m_ws.bdf.batched_lu = nullptr;
        m_report.device_steps += batch_steps;
        ++m_report.batches;

        if (ExecConfig::accountsLaunches()) {
            const double mean =
                static_cast<double>(batch_steps) / static_cast<double>(count);
            LaunchRecord rec;
            rec.info = burnKernelInfo(nspec, std::max(mean, 1.0),
                                      static_cast<double>(batch_max) /
                                          std::max(mean, 1.0));
            rec.info.name = "nuclear_burn_batch";
            rec.zones = count;
            rec.ncomp = 1;
            events::publish(rec);
        }
    }

    // --- Host tail --------------------------------------------------------
    //
    // The stiff outliers integrate on the robust per-zone host path (no
    // device launch: the model treats them as CPU work concurrent with the
    // device batches, the paper's Section VI split). Wall time is reported
    // so callers can price the host side honestly.
    if (split < n) {
        const auto t0 = std::chrono::steady_clock::now();
        m_ws.bdf.batched_lu = nullptr;
        for (std::int64_t p = split; p < n; ++p) {
            const std::int64_t z = m_order[p];
            for (int s = 0; s < nspec; ++s) x[s] = b.X[s * n + z];
            burnZoneInto(m_ode, b.rho[z], b.T[z], x.data(), dt, zopt, m_ws,
                         m_result);
            b.T_out[z] = m_result.T;
            for (int s = 0; s < nspec; ++s) b.Xout(s)[z] = m_result.X[s];
            b.e_nuc[z] = m_result.e_nuc;
            b.steps[z] = m_result.stats.steps;
            b.success[z] = m_result.success ? 1 : 0;
            m_report.tail_steps += std::max<std::int64_t>(m_result.stats.steps, 1);
        }
        m_report.tail_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    }
}

} // namespace exa
