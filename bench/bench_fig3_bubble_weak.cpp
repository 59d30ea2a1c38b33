// Experiment E2 (Figure 3): MAESTROeX reacting-bubble weak scaling.
//
// The real low Mach solver (advection + buoyancy + 2-species carbon
// burning + multigrid projection) runs at laptop scale under the
// simulated GPU; the measured burn/advection kernel mix and the measured
// projection V-cycle count feed the Summit scaling model at the paper's
// node counts 1/8/27/64/125 (domain grown 2x,3x,4x,5x per dimension).
//
// Paper targets: single node ~11 zones/usec (~20x the CPU node);
// burning and multigrid roughly balanced on one node; multigrid ~6x the
// burn cost at 125 nodes; normalized throughput decaying to ~0.4-0.5.

#include "bench_util.hpp"
#include "maestro/maestro.hpp"

#include <cstdio>
#include <map>
#include <vector>

using namespace exa;
using namespace exa::maestro;

int main() {
    benchutil::printHeader(
        "Figure 3: MAESTROeX reacting bubble weak scaling (measured + model)");

    // --- Phase 1: instrumented real runs --------------------------------
    // Run A measures the zone-local physics (projection disabled, so the
    // multigrid's internal kernels and ghost copies stay out of the mix);
    // run B measures the projection's V-cycle count. The MG cost itself is
    // then priced by the multigrid model at the right per-level sizes.
    auto net = makeIgnitionSimple();
    BubbleParams bp;
    bp.ncell = 16;
    bp.max_grid_size = 8; // 8 boxes
    bp.do_react = true;
    bp.T_bubble = 9.0e8;
    bp.bubble_radius_frac = 0.22; // a substantial burning region
    auto m = bp.build(net);

    ScopedBackend sb(Backend::SimGpu);
    DeviceModel dev;
    dev.attach();
    const int nsteps = 3;
    for (int s = 0; s < nsteps; ++s) {
        m->step(std::min(m->estimateDt(), 1.0e-3));
    }
    dev.detach();

    const int nboxes = static_cast<int>(m->state().size());
    const std::int64_t zones_per_box = 8LL * 8 * 8;

    // Separate the multigrid work (everything launched inside project())
    // from the zone-local mix by re-running one projection alone.
    DeviceModel dev_proj;
    dev_proj.attach();
    m->project();
    const double vcycles_per_step =
        static_cast<double>(m->lastProjectionVcycles());
    dev_proj.detach();
    auto proj_mix = benchutil::kernelMix(dev_proj, nboxes, 1, zones_per_box);

    auto mix_all = benchutil::kernelMix(dev, nboxes, nsteps, zones_per_box);
    std::vector<KernelLaunchSpec> mix;
    for (const auto& k : mix_all) {
        const std::string nm = k.info.name;
        if (nm.rfind("mg_", 0) == 0) continue;
        // Subtract the per-projection share of generic copies/reductions
        // (they belong to the MG solve, priced by the MG model).
        double launches = k.launches_per_box_per_step;
        for (const auto& pk : proj_mix) {
            if (nm == pk.info.name) {
                launches -= pk.launches_per_box_per_step;
            }
        }
        if (launches <= 0.01) continue;
        KernelLaunchSpec s = k;
        s.launches_per_box_per_step = launches;
        mix.push_back(s);
    }

    std::printf("\nMeasured kernel mix (per box per step) and projection cost:\n");
    for (const auto& k : mix) {
        std::printf("  %-22s launches/box/step %7.2f  imbalance %5.1f  %4d regs\n",
                    k.info.name, k.launches_per_box_per_step,
                    k.info.work_imbalance, k.info.regs_per_thread);
    }
    std::printf("  projection V-cycles per step: %.1f\n", vcycles_per_step);

    StepModel step;
    step.kernels = mix;
    step.fillboundary_phases_per_step = 2; // advect + projection correction
    step.halo_ncomp = MaestroLayout(net.nspec()).ncomp();
    step.halo_ngrow = 2;
    step.allreduces_per_step = 2; // dt + null-space removal

    MultigridModel mg;
    mg.vcycles_per_step = vcycles_per_step;
    mg.smooth_sweeps_per_level = 5; // red-black passes touch half the zones:
                                    // ~5 full-zone-equivalent sweeps per level
    mg.ncomp = 1;

    // --- Phase 2: Summit-scale weak scaling -----------------------------
    WeakScalingModel model(MachineParams::summit());
    const std::vector<int> node_counts = {1, 8, 27, 64, 125};

    std::printf("\nWeak scaling (128^3 zones/node, 32^3 boxes):\n");
    std::printf("  %5s %14s %12s %14s %14s\n", "nodes", "zones/usec", "normalized",
                "mg share", "mg/burn");
    double single_node = 0.0;
    std::map<int, ScalingPoint> pts;
    for (int n : node_counts) {
        auto pt = model.run(n, 128, 32, step, &mg);
        if (n == 1) single_node = pt.zones_per_usec;
        pt.normalized = pt.zones_per_usec / (single_node * n);
        pts[n] = pt;
        std::printf("  %5d %14.2f %12.3f %14.3f %14.2f\n", n, pt.zones_per_usec,
                    pt.normalized, pt.mg_s / pt.total_s, pt.mg_s / pt.compute_s);
    }

    benchutil::printHeader("Paper comparison (measured/modeled vs paper)");
    std::printf("  %-42s %12s %12s\n", "quantity", "ours", "paper");
    benchutil::printRow("single-node throughput", single_node, 11.0, "zones/usec");
    benchutil::printRow("mg/burn cost ratio, 1 node",
                        pts[1].mg_s / pts[1].compute_s, 1.0, "");
    benchutil::printRow("mg/burn cost ratio, 125 nodes",
                        pts[125].mg_s / pts[125].compute_s, 6.0, "");
    benchutil::printRow("normalized throughput, 125 nodes", pts[125].normalized,
                        0.45, "");
    return 0;
}
