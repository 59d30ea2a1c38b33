// Experiment E1 (Figure 2): Castro Sedov-Taylor weak scaling on a
// Summit-like machine.
//
// Phase 1 runs the *real* Castro-mini Sedov solver at laptop scale under
// the simulated-GPU backend and extracts the per-box kernel mix from the
// instrumentation (nothing about the compute cost is assumed).
//
// Phase 2 replicates the paper's runs with the scaling model: the
// canonical curve (256^3 zones per node, 64^3 boxes, 6 ranks/node, nodes
// 1/8/64/512), then the best/worst tuning sweep over max box widths
// {32,48,64,96,128} at two domain sizes (the larger one and one 0.75x
// smaller per dimension).
//
// Paper targets: single node ~130 zones/usec; 512-node efficiency ~63%
// (~42000 zones/usec); order-unity spread between best and worst tuned
// cases, growing with scale.

#include "bench_util.hpp"
#include "castro/sedov.hpp"

#include <cstdio>
#include <map>
#include <vector>

using namespace exa;
using namespace exa::castro;

int main() {
    benchutil::printHeader(
        "Figure 2: Castro Sedov weak scaling (measured kernel mix + Summit model)");

    // --- Phase 1: instrumented real run --------------------------------
    auto net = makeIgnitionSimple();
    SedovParams sp;
    sp.ncell = 32;
    sp.max_grid_size = 16; // 8 boxes of 16^3
    auto castro_run = sp.build(net);

    ScopedBackend sb(Backend::SimGpu);
    DeviceModel dev;
    dev.attach();
    const int nsteps = 5;
    for (int s = 0; s < nsteps; ++s) castro_run->step(castro_run->estimateDt());
    dev.detach();

    const int nboxes = static_cast<int>(castro_run->state().size());
    const std::int64_t zones_per_box = 16LL * 16 * 16;
    auto mix = benchutil::kernelMix(dev, nboxes, nsteps, zones_per_box);

    std::printf("\nMeasured kernel mix (per box per step, from a real %d^3 run):\n",
                sp.ncell);
    for (const auto& k : mix) {
        std::printf("  %-22s launches/box/step %6.2f  zones x%4.2f  "
                    "%5.0f B/zone  %4d regs\n",
                    k.info.name, k.launches_per_box_per_step, k.zones_fraction,
                    k.info.bytes_per_zone, k.info.regs_per_thread);
    }

    StepModel step;
    step.kernels = mix;
    step.fillboundary_phases_per_step = 2; // two RK2 stages
    step.halo_ncomp = StateLayout(net.nspec()).ncomp();
    step.halo_ngrow = 4;
    step.allreduces_per_step = 1; // CFL dt

    // --- Phase 2: Summit-scale weak scaling -----------------------------
    WeakScalingModel model(MachineParams::summit());

    std::printf("\nCanonical weak scaling (256^3 zones/node, 64^3 boxes):\n");
    std::printf("  %5s %14s %14s %12s\n", "nodes", "zones/usec", "normalized",
                "imbalance");
    const std::vector<int> node_counts = {1, 8, 64, 512};
    double single_node = 0.0;
    std::map<int, ScalingPoint> canonical;
    for (int n : node_counts) {
        auto pt = model.run(n, 256, 64, step);
        if (n == 1) single_node = pt.zones_per_usec;
        pt.normalized = pt.zones_per_usec / (single_node * n);
        canonical[n] = pt;
        std::printf("  %5d %14.1f %14.3f %12.3f\n", n, pt.zones_per_usec,
                    pt.normalized, pt.imbalance);
    }

    std::printf("\nBest/worst tuning sweep (max box width x domain size):\n");
    std::printf("  %5s %16s %16s\n", "nodes", "best (norm)", "worst (norm)");
    const std::vector<int> widths = {32, 48, 64, 96, 128};
    for (int n : node_counts) {
        double best = 0.0, worst = 1.0e300;
        for (int per_node : {256, 192}) {
            for (int w : widths) {
                if (per_node % w != 0) continue; // box must tile the domain
                auto pt = model.run(n, per_node, w, step);
                best = std::max(best, pt.zones_per_usec);
                worst = std::min(worst, pt.zones_per_usec);
            }
        }
        std::printf("  %5d %16.3f %16.3f\n", n, best / (single_node * n),
                    worst / (single_node * n));
    }

    benchutil::printHeader("Paper comparison (measured/modeled vs paper)");
    std::printf("  %-42s %12s %12s\n", "quantity", "ours", "paper");
    benchutil::printRow("single-node throughput", single_node, 130.0, "zones/usec");
    benchutil::printRow("512-node throughput", canonical[512].zones_per_usec, 42000.0,
                        "zones/usec");
    benchutil::printRow("512-node weak-scaling efficiency",
                        canonical[512].normalized, 0.63, "");
    benchutil::printRow("fiducial load imbalance (64 boxes / 6 ranks)",
                        canonical[1].imbalance, 11.0 * 6.0 / 64.0, "");
    return 0;
}
