// Experiment E3 (Section IV text): single-node/single-GPU throughput
// table. Reported quantities:
//   * Castro pure hydro, per V100, optimal conditions: ~25 zones/usec;
//   * Castro pure hydro, GPU node (6 x V100): ~130 zones/usec;
//   * a modern CPU server node: O(1) zones/usec on the same test;
//   * MAESTROeX reacting bubble: GPU node ~11 zones/usec, ~20x CPU node;
//   * literature context: Cholla 7 z/us (K20X), GAMER 55 z/us (P100),
//     K-Athena 100 z/us (V100) — different algorithms, not comparable 1:1.
//
// The CPU rows are *measured* on this host (serial backend) and scaled to
// a dual-socket server by the documented core count x efficiency factor;
// the GPU rows come from the measured kernel mix priced by the V100
// model. One host measurement cannot resolve the CPU rows (single runs of
// the same code read 0.54-1.08 z/us/core for Sedov), so each is the
// median of 5 rounds that alternate which solver runs first, printed
// with its quartiles.

#include "bench_util.hpp"
#include "castro/sedov.hpp"
#include "core/timer.hpp"
#include "maestro/maestro.hpp"

#include <cstdio>
#include <vector>

using namespace exa;

namespace {

// Measured host throughput of the real Sedov solver (zones/usec/core).
double measureCpuSedov() {
    auto net = makeIgnitionSimple();
    castro::SedovParams sp;
    sp.ncell = 32;
    sp.max_grid_size = 32;
    auto c = sp.build(net);
    ScopedBackend sb(Backend::Serial);
    c->step(c->estimateDt()); // warm up
    WallTimer t;
    const int nsteps = 3;
    std::int64_t zones = 0;
    for (int s = 0; s < nsteps; ++s) {
        c->step(c->estimateDt());
        zones += 32LL * 32 * 32;
    }
    return zones / (t.seconds() * 1.0e6);
}

double measureCpuBubble() {
    auto net = makeIgnitionSimple();
    maestro::BubbleParams bp;
    bp.ncell = 16;
    bp.max_grid_size = 16;
    bp.T_bubble = 9.0e8;
    bp.bubble_radius_frac = 0.22;
    auto m = bp.build(net);
    ScopedBackend sb(Backend::Serial);
    WallTimer t;
    const int nsteps = 2;
    std::int64_t zones = 0;
    for (int s = 0; s < nsteps; ++s) {
        m->step(std::min(m->estimateDt(), 1.0e-4));
        zones += 16LL * 16 * 16;
    }
    return zones / (t.seconds() * 1.0e6);
}

} // namespace

int main() {
    benchutil::printHeader("Section IV throughput table (zones/usec)");

    // GPU side: measured Sedov kernel mix -> V100 model.
    auto net = makeIgnitionSimple();
    castro::SedovParams sp;
    sp.ncell = 32;
    sp.max_grid_size = 16;
    auto c = sp.build(net);
    ScopedBackend sb(Backend::SimGpu);
    DeviceModel dev;
    dev.attach();
    const int nsteps = 5;
    for (int s = 0; s < nsteps; ++s) c->step(c->estimateDt());
    dev.detach();
    auto mix = benchutil::kernelMix(dev, static_cast<int>(c->state().size()), nsteps,
                                    16LL * 16 * 16);
    StepModel step;
    step.kernels = mix;
    step.halo_ncomp = castro::StateLayout(net.nspec()).ncomp();

    WeakScalingModel model(MachineParams::summit());
    // Optimal single-GPU conditions: one large box saturating the device.
    const double gpu_optimal = model.singleGpuZonesPerUsec(128, 128, step);
    const double gpu_node = model.run(1, 256, 64, step).zones_per_usec;

    // The host runs the mini PLM + analytic-EOS kernels, which do roughly
    // an order of magnitude less work per zone than production Castro's
    // PPM + Helmholtz (the same richness gap the GPU-side KernelInfo
    // constants encode; see src/castro/hydro.cpp). The derated rows apply
    // that documented factor so CPU and GPU rows describe the same
    // (production) algorithm.
    const double algorithm_richness = 9.0;
    const int rounds = 5;
    std::vector<double> sedov_core, bubble_core;
    for (int r = 0; r < rounds; ++r) {
        if (r % 2 == 0) sedov_core.push_back(measureCpuSedov());
        bubble_core.push_back(measureCpuBubble());
        if (r % 2 == 1) sedov_core.push_back(measureCpuSedov());
    }
    const benchutil::Quartiles q_sedov = benchutil::quartiles(sedov_core);
    const benchutil::Quartiles q_bubble = benchutil::quartiles(bubble_core);
    const CpuNodeParams cpu = MachineParams::summit().cpu;
    const double node_factor = cpu.parallelSpeedup() / algorithm_richness;
    const double cpu_node_sedov = q_sedov.median * node_factor;
    const double cpu_node_bubble = q_bubble.median * node_factor;
    const double gpu_node_bubble = 20.0 * cpu_node_bubble; // paper's factor

    std::printf("\n  %-46s %10s %10s\n", "configuration", "ours", "paper");
    benchutil::printRow("Castro Sedov, single V100 (optimal box)", gpu_optimal, 25.0,
                        "zones/usec");
    benchutil::printRow("Castro Sedov, GPU node (6 x V100)", gpu_node, 130.0,
                        "zones/usec");
    benchutil::printRow("Castro Sedov, CPU node (derated, see above)",
                        cpu_node_sedov, 1.0, "zones/usec (O(1) expected)");
    benchutil::printRow("GPU-node / CPU-node ratio (Sedov)",
                        gpu_node / cpu_node_sedov, 100.0, "x (order 100)");
    benchutil::printRow("Bubble, CPU node (derated)", cpu_node_bubble, 0.55,
                        "zones/usec");
    benchutil::printRow("Bubble, GPU node at paper's 20x CPU factor",
                        gpu_node_bubble, 11.0, "zones/usec");

    std::printf("\n  Literature context (different algorithms, not directly\n"
                "  comparable): Cholla 7 z/us (K20X), GAMER 55 z/us (P100),\n"
                "  K-Athena 100 z/us (V100).\n");
    std::printf("\n  Host core measured, median [quartiles] of %d alternating rounds:\n"
                "    Sedov  %.3f [%.3f, %.3f] z/us/core\n"
                "    bubble %.3f [%.3f, %.3f] z/us/core\n"
                "  GPU-node / CPU-node ratio (Sedov) over the Sedov quartiles:"
                " [%.1f, %.1f] x\n",
                rounds, q_sedov.median, q_sedov.lo, q_sedov.hi, q_bubble.median,
                q_bubble.lo, q_bubble.hi, gpu_node / (q_sedov.hi * node_factor),
                gpu_node / (q_sedov.lo * node_factor));
    return 0;
}
