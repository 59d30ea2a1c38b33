// Experiment E4 (Figure 4 / Section V): the white-dwarf head-on
// collision.
//
// Reproduced claims:
//  (a) resolution changes the science answer: the higher-resolution run
//      ignites (T reaches 4e9 K) *earlier* in the collision;
//  (b) AMR refines only a tiny fraction of the domain (paper: stars
//      ~0.5% of the volume), so 4x refinement costs ~nothing compared to
//      the 4^3 = 64x of uniform refinement;
//  (c) after contact, the nuclear reactions dominate the gravity solve
//      (paper: ~5x);
//  (d) the burning timescale in hot zones approaches/undercuts the zonal
//      sound-crossing time: the detonation is not numerically converged;
#include "core/parallel_for.hpp"
//  (e) Summit cost projections from the measured kernel mix: 512^3
//      uniform on 16 nodes (paper: < 15 minutes, < 10 node-hours) vs the
//      16x-resolved AMR run on 48 nodes (paper: ~5000 node-hours).

#include "bench_util.hpp"
#include "castro/wd_collision.hpp"
#include "core/timer.hpp"
#include "mesh/tagging.hpp"

#include <cstdio>

using namespace exa;
using namespace exa::castro;

namespace {

struct RunResult {
    Real t_ignite = -1.0;
    Real timescale_ratio = 1.0e99;
    double react_seconds = 0.0;
    double gravity_seconds = 0.0;
    double tagged_fraction = 0.0;
    std::vector<KernelLaunchSpec> mix;
    int steps = 0;
};

RunResult runCollision(int ncell, const ReactionNetwork& net) {
    WdCollisionParams p;
    p.ncell = ncell;
    p.max_grid_size = std::max(8, ncell / 2);
    p.rho_c = 5.0e6;
    p.domain_width = 8.0e9;
    p.separation_in_diameters = 1.3; // short approach at bench scale
    p.approach_velocity = 4.0e8;
    p.do_react = true;
    p.ignition_T = 4.0e9;
    // Monopole gravity for the resolution study (the stars are near-
    // spherical until contact); the react-vs-gravity cost comparison
    // below prices the paper's Poisson solve with the multigrid model.
    p.gravity = GravityType::Monopole;
    auto wd = p.build(net);

    TimerRegistry::instance().reset();
    ScopedBackend sb(Backend::SimGpu);
    DeviceModel dev;
    dev.attach();
    RunResult out;
    out.t_ignite = wd.runToIgnition(/*t_max=*/12.0, /*max_steps=*/600);
    dev.detach();
    out.steps = wd.castro->stepCount();
    out.timescale_ratio = wd.castro->minBurnTimescaleRatio(1.0e9);
    out.react_seconds = TimerRegistry::instance().seconds("castro::react");
    out.gravity_seconds = TimerRegistry::instance().seconds("castro::gravity");
    const int nboxes = static_cast<int>(wd.castro->state().size());
    const std::int64_t zpb = static_cast<std::int64_t>(p.max_grid_size) *
                             p.max_grid_size * p.max_grid_size;
    out.mix = benchutil::kernelMix(dev, nboxes, std::max(out.steps, 1), zpb);

    // What AMR would refine: tag star material (rho above ambient) and
    // cluster into boxes, exactly as the regrid path does.
    MultiFab tags(wd.castro->state().boxArray(), wd.castro->state().distributionMap(),
                  1, 0);
    tags.setVal(0.0);
    for (std::size_t b = 0; b < tags.size(); ++b) {
        auto t = tags.array(static_cast<int>(b));
        auto u = wd.castro->state().const_array(static_cast<int>(b));
        ParallelFor(tags.box(static_cast<int>(b)), [=](int i, int j, int k) {
            if (u(i, j, k, StateLayout::URHO) > 1.0e3) t(i, j, k) = 1.0;
        });
    }
    TagCluster cluster(4);
    BoxArray refined(cluster.cluster(tags, wd.castro->geom().domain()));
    out.tagged_fraction = static_cast<double>(refined.numPts()) /
                          wd.castro->geom().domain().numPts();
    return out;
}

} // namespace

int main() {
    benchutil::printHeader("Figure 4 / Section V: white dwarf head-on collision");

    auto net = makeAprox13(); // the paper's N = 13 network

    // --- (b) star volume budget (from the real hydrostatic model) -------
    {
        Eos eos{HelmLiteEos{}};
        std::vector<Real> X(net.nspec(), 0.0);
        X[net.speciesIndex("c12")] = 0.5;
        X[net.speciesIndex("o16")] = 0.5;
        auto prof = buildWdProfile(eos, net, 5.0e6, 1.0e7, X);
        const Real L = 2.56e10; // the paper's 512^3 x 50 km domain
        const Real vol_stars = 2.0 * (4.0 / 3.0) * constants::pi * prof.radius *
                               prof.radius * prof.radius;
        const double star_frac = vol_stars / (L * L * L);
        const double amr_multiplier = 1.0 + star_frac * (64.0 - 1.0);
        std::printf("\n  WD model: R = %.3g cm, M = %.3g Msun\n", prof.radius,
                    prof.mass / constants::M_sun);
        std::printf("  %-46s %10s %10s\n", "quantity", "ours", "paper");
        benchutil::printRow("stars' geometric volume fraction", star_frac, 0.005,
                            "(paper domain)");
        benchutil::printRow("AMR 4x work multiplier (vs 64x uniform)",
                            amr_multiplier, 1.3, "x base grid");
    }

    // --- (a,c,d) resolution study with the real solver -------------------
    std::printf("\n  Resolution study (real runs, aprox13, monopole gravity):\n");
    std::printf("  %8s %14s %18s %14s %14s\n", "ncell", "t_ignite [s]",
                "min t_burn/t_cross", "react/grav", "tagged frac");
    RunResult lo = runCollision(24, net);
    RunResult hi = runCollision(32, net);
    for (auto [n, r] : {std::pair{24, lo}, std::pair{32, hi}}) {
        std::printf("  %8d %14.3f %18.3g %14.2f %14.4f\n", n, r.t_ignite,
                    r.timescale_ratio,
                    r.react_seconds / std::max(r.gravity_seconds, 1e-12),
                    r.tagged_fraction);
    }

    std::printf("\n  %-46s %10s %10s\n", "claim", "ours", "paper");
    benchutil::printRow("ignition earlier at higher resolution (dt)",
                        lo.t_ignite - hi.t_ignite, 0.1,
                        "s; > 0 is the claim (sign matters)");
    benchutil::printRow("min burn/sound-crossing timescale ratio",
                        hi.timescale_ratio, 0.1,
                        "(paper: < 1, unconverged; shrinks with res)");
    benchutil::printRow("tagged volume fraction (bench domain)",
                        hi.tagged_fraction, 0.005, "(bench stars are larger)");

    // --- (e) Summit cost projections with the measured mix ---------------
    {
        StepModel step;
        step.kernels = hi.mix;
        // At bench scale ignition happens in a handful of zones, so the
        // measured burn imbalance is a single-zone tail; in the 512^3
        // production run the igniting contact region spans many zones per
        // box and the tail is bounded. Cap it for the projection.
        for (auto& k : step.kernels) {
            k.info.work_imbalance = std::min(k.info.work_imbalance, 10.0);
        }
        step.halo_ncomp = StateLayout(net.nspec()).ncomp();
        step.halo_ngrow = 4;
        WeakScalingModel model(MachineParams::summit());

        // Reactions vs gravity (paper: reactions ~5x the gravity solve
        // after contact): burn kernel compute vs the Poisson multigrid at
        // production scale. Every burn launch counts: burnBatch names
        // its launches nuclear_burn_batch, so match the prefix.
        {
            StepModel burn_only;
            for (const auto& k : step.kernels) {
                if (std::string(k.info.name).rfind("nuclear_burn", 0) == 0) {
                    burn_only.kernels.push_back(k);
                }
            }
            MultigridModel grav_mg;
            grav_mg.vcycles_per_step = 10.0; // one solve per step
            grav_mg.smooth_sweeps_per_level = 5;
            const auto pt = model.run(16, 256, 64, burn_only, &grav_mg);
            benchutil::printRow("react/gravity cost ratio (modeled, 16 nodes)",
                                pt.compute_s / pt.mg_s, 5.0, "");
        }

        // Low-res: 512^3 uniform on 16 nodes; ~7 s of simulation at
        // dx = 50 km, dt ~ 0.4 * dx / (|u|+cs) ~ 2e-3 s -> ~3500 steps.
        const auto lo_pt = model.run(16, 256, 64, step);
        const double lo_steps = 7.0 / 2.0e-3;
        const double lo_minutes = lo_steps * lo_pt.total_s / 60.0;
        // High-res AMR: stars 4x finer everywhere + 4x again when hot;
        // zones ~2.2x the uniform run, dt 16x smaller -> 16x the steps.
        const auto hi_pt = model.run(48, 256, 64, step);
        const double hi_node_hours =
            48.0 * 16.0 * lo_steps * hi_pt.total_s * 2.2 / 3600.0;

        std::printf("\n  %-46s %10s %10s\n", "cost projection", "ours", "paper");
        benchutil::printRow("512^3 uniform, 16 nodes", lo_minutes, 15.0,
                            "minutes (paper: < 15)");
        benchutil::printRow("node-hours, low-res total", 16.0 * lo_minutes / 60.0,
                            10.0, "(paper: < 10)");
        benchutil::printRow("AMR 16x run, 48 nodes", hi_node_hours, 5000.0,
                            "node-hours (~)");
    }
    return 0;
}
