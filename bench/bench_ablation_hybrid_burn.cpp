// Experiment E14 (Section VI future work, implemented): the batched
// GPU-resident burn engine vs the per-box unsorted baseline, and the
// CPU/GPU hybrid split on top of it.
//
// "In the extreme case where one zone in a box is igniting while all of
// the others are quiescent, the computational cost may vary by multiple
// orders of magnitude across zones ... a strategy that involves
// identifying those outlier zones ... and performing their ODE solves on
// the CPU, while the GPU handles the rest."
//
// The workload is a WD-collision-like stiffness distribution on a real
// multi-box MultiFab: a cold inert bulk, a quiescent-but-reacting warm
// bulk, a hot interface plane (many zones, moderate stiffness), and a few
// igniting hot-spot zones (extreme stiffness). Three burn drivers run on
// identical state under the simulated V100, as three configurations of
// the one grid burn driver (reactState):
//
//   baseline — per-box batches: batch_size = zones per fab, no stiffness
//              sort, no tail, so each reacting fab burns in its own launch
//              priced with its fab-local step distribution (48 small
//              launches, each paying the latency-hiding ramp and its own
//              max-zone warp-stall tail);
//   batched  — the defaults: all reacting zones of the MultiFab fused into
//              a few large stiffness-sorted launches;
//   hybrid   — batched plus the stiff tail routed to the host, with the
//              host side priced from the tail's integrator steps at a
//              Summit-node CPU rate and overlapped with the device.
//
// All three produce bit-identical zone results; only the launch structure
// differs. The bench prints the burn-phase speedups plus the batch-size
// and stiffness-spread sweeps (EXPERIMENTS.md E14).

#include "bench_util.hpp"
#include "castro/react.hpp"
#include "castro/state.hpp"
#include "mesh/multifab.hpp"

#include <cmath>
#include <cstdio>

using namespace exa;
using namespace exa::castro;

namespace {

struct Workload {
    BoxArray ba;
    DistributionMapping dm;
    MultiFab state;
    int nspec;

    Workload(const ReactionNetwork& net, int ncell, int max_grid, Real T_interface,
             int hot_zones)
        : ba(makeBa(ncell, max_grid)), dm(ba, 1),
          state(ba, dm, StateLayout(net.nspec()).ncomp(), 0), nspec(net.nspec()) {
        // 50/50 C/O everywhere.
        std::vector<Real> X(nspec, 0.0);
        X[net.speciesIndex("c12")] = 0.5;
        X[net.speciesIndex("o16")] = 0.5;
        const int mid = ncell / 2;
        // Igniting hot spots scattered along the interface plane so they
        // land in *different* boxes — each one stalls its own fab's
        // launch in the per-zone baseline, while the batched gather
        // folds them into a single batch (and the hybrid tails them).
        auto isHot = [&](int i, int j, int k) {
            if (i != mid || k % max_grid != max_grid / 2 ||
                j % max_grid != max_grid / 2)
                return false;
            const int cell = (j / max_grid) + (ncell / max_grid) * (k / max_grid);
            return cell < hot_zones;
        };
        for (std::size_t f = 0; f < state.size(); ++f) {
            auto u = state.array(static_cast<int>(f));
            const Box& vb = state.box(static_cast<int>(f));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        Real rho = 1.0e7, T;
                        if (i < mid / 2) {
                            T = 3.0e7; // cold inert bulk (skipped by T_min)
                        } else if (i == mid || i == mid + 1) {
                            // the collision interface: hot plane
                            T = isHot(i, j, k) ? 3.2e9 : T_interface;
                        } else {
                            T = 1.5e8; // warm quiescent bulk (reacting)
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
};

struct RunResult {
    BurnGridStats stats;
    double device_s = 0.0;  // modeled device time of the burn phase
    double host_s = 0.0;    // modeled host time of the hybrid tail
    BatchBurnReport report;
    double effective() const { return std::max(device_s, host_s); }
};

// Host-side price of the hybrid tail: the tail's integrator steps at a
// Summit-node CPU rate. The paper's node-for-node measurements put the
// GPU build ~20x over the CPU build, so one AC922 node's burn throughput
// is modeled as gpu.flops / 20 (~42 cores x 0.85 derate x ~11 GF/core).
double hostTailSeconds(const BatchBurnReport& rep, int nspec) {
    const int nsys = nspec + 1;
    const double flops_per_step = 2000.0 * nsys * nsys + 60000.0;
    const GpuParams gpu;
    const CpuNodeParams cpu;
    const double node_flops = gpu.flops / 20.0;
    (void)cpu;
    return static_cast<double>(rep.tail_steps) * flops_per_step / node_flops;
}

RunResult runBurn(const Workload& w, const ReactionNetwork& net, const Eos& eos,
                  Real dt, const ReactOptions& ropt) {
    // Fresh copy of the state each time (burn mutates it).
    MultiFab state(w.ba, w.dm, w.state.nComp(), w.state.nGrow());
    MultiFab::Copy(state, w.state, 0, 0, w.state.nComp(), 0);
    ScopedBackend sb(Backend::SimGpu);
    DeviceModel dev;
    dev.attach();
    RunResult r;
    r.stats = reactState(state, net, eos, dt, ropt, nullptr, 0, &r.report);
    dev.detach();
    r.device_s = dev.elapsedSeconds();
    if (ropt.batch.hybrid_cpu_tail)
        r.host_s = hostTailSeconds(r.report, net.nspec());
    return r;
}

} // namespace

int main() {
    benchutil::printHeader(
        "E14: batched stiffness-sorted burn vs per-box baseline (WD-like)");

    auto net = makeNetworkByName("aprox13");
    Eos eos{HelmLiteEos{}};
    const Real dt = 1.0e-6;
    const int ncell = 32, max_grid = 8;

    Workload w(net, ncell, max_grid, 9.0e8, 6);

    ReactOptions base;
    base.batch.batch_size = max_grid * max_grid * max_grid;
    base.batch.sort_by_stiffness = false;
    ReactOptions batched;
    ReactOptions hybrid = batched;
    hybrid.batch.hybrid_cpu_tail = true;

    auto rb = runBurn(w, net, eos, dt, base);
    auto rB = runBurn(w, net, eos, dt, batched);
    auto rH = runBurn(w, net, eos, dt, hybrid);

    std::printf("\n  zones %lld (%zu fabs), mean steps %.1f, max steps %lld "
                "(imbalance %.0fx)\n",
                static_cast<long long>(rb.stats.zones), w.state.size(),
                rb.stats.meanSteps(), static_cast<long long>(rb.stats.max_steps),
                rb.stats.imbalance());
    std::printf("  gathered %lld reacting zones -> %lld batches, "
                "stiffness median %.2g max %.2g\n",
                static_cast<long long>(rB.report.gathered),
                static_cast<long long>(rB.report.batches),
                rB.report.stiffness_median, rB.report.stiffness_max);
    std::printf("  hybrid tail: %lld zones (cut %.3g), %lld steps, host %.3g ms "
                "overlapped with device\n",
                static_cast<long long>(rH.report.tail_zones),
                rH.report.stiffness_tail_cut,
                static_cast<long long>(rH.report.tail_steps), rH.host_s * 1e3);

    std::printf("\n  %-46s %10s %10s\n", "quantity", "ours", "paper");
    benchutil::printRow("baseline (per-box unsorted batches)", rb.device_s * 1e3,
                        0.0, "ms");
    benchutil::printRow("batched (sorted, fused launches)", rB.effective() * 1e3,
                        0.0, "ms");
    benchutil::printRow("hybrid (batched + CPU stiff tail)", rH.effective() * 1e3,
                        0.0, "ms");
    benchutil::printRow("batched speedup over baseline",
                        rb.device_s / rB.effective(), 2.0,
                        "x (target >= 2x, Section VI)");
    benchutil::printRow("hybrid speedup over baseline",
                        rb.device_s / rH.effective(), 2.0, "x");
    benchutil::printRow("hybrid speedup over pure batched",
                        rB.effective() / rH.effective(), 1.0, "x (> 1 expected)");

    // --- Sweep: batch size --------------------------------------------------
    std::printf("\n  speedup vs batch size (sorted, no tail):\n");
    std::printf("    %10s %10s %12s %10s\n", "batch", "launches", "device [ms]",
                "speedup");
    for (int bs : {256, 1024, 2048, 4096, 16384}) {
        ReactOptions o = batched;
        o.batch.batch_size = bs;
        auto r = runBurn(w, net, eos, dt, o);
        std::printf("    %10d %10lld %12.3f %10.2f\n", bs,
                    static_cast<long long>(r.report.batches), r.device_s * 1e3,
                    rb.device_s / r.device_s);
    }

    // --- Sweep: stiffness spread -------------------------------------------
    // Hotter interface planes widen the step-count spread between the
    // quiescent bulk and the plane; the sort keeps batches homogeneous,
    // so the batched advantage should hold across the sweep.
    std::printf("\n  speedup vs stiffness spread (interface temperature):\n");
    std::printf("    %12s %10s %12s %12s %10s %10s\n", "T_iface [K]", "imb [x]",
                "base [ms]", "batch [ms]", "speedup", "hybrid x");
    for (Real Ti : {7.0e8, 9.0e8, 1.2e9}) {
        Workload ws(net, ncell, max_grid, Ti, 6);
        auto b = runBurn(ws, net, eos, dt, base);
        auto s = runBurn(ws, net, eos, dt, batched);
        auto h = runBurn(ws, net, eos, dt, hybrid);
        std::printf("    %12.2g %10.0f %12.3f %12.3f %10.2f %10.2f\n", Ti,
                    b.stats.imbalance(), b.device_s * 1e3, s.effective() * 1e3,
                    b.device_s / s.effective(), s.effective() / h.effective());
    }
    return 0;
}
