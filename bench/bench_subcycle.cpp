// E13 — subcycled AMR time stepping: coarse-work reduction and
// round-off conservation through the flux registers.
//
// Castro's production configuration advances each AMR level with its own
// CFL-limited timestep: level lev takes ref_ratio^lev substeps per
// coarse step, so the coarse levels do ref_ratio^lev fewer advances than
// the finest. Without subcycling every level must march at the finest
// level's dt and the coarse zones burn r^lev times the updates for the
// same physical time. This bench runs the same 3-level Sedov-like blast
// (periodic domain: closed books) both ways to the same end time and
// reports:
//
//   * zone updates spent on the coarse levels (lev < finest), subcycled
//     vs. lockstep — target: >= 2x reduction (r = 2, three levels:
//     asymptotically 4x for level 0, diluted by the fine-level work the
//     two runs share);
//   * per-level advance counts, showing the ref_ratio^lev cadence;
//   * mass and energy conservation at sync points for both modes — the
//     FluxRegister repays the coarse/fine flux mismatch, so both hold to
//     round-off despite the coarse level seeing r x fewer, larger steps.

#include "bench_util.hpp"
#include "castro/castro.hpp"
#include "core/parallel_for.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace exa;
using namespace exa::castro;

namespace {

struct Blast {
    std::unique_ptr<Castro> amr;
    ReactionNetwork net = makeIgnitionSimple();
};

Blast makeBlast(int max_level, int ncell) {
    Blast b;
    Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    AmrInfo info;
    info.max_level = max_level;
    info.ref_ratio = 2;
    info.max_grid_size = 16;
    info.blocking_factor = 4;
    info.n_error_buf = 1;
    info.nranks = 4;

    CastroOptions opt;
    opt.bc = DomainBC::allPeriodic();
    opt.cfl = 0.3;

    const Real r_init = 2.0 / ncell;
    const Real e_in = 1.0 / ((4.0 / 3.0) * constants::pi * r_init * r_init * r_init);
    Castro::InitFn init = [=](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = 1.0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r_init ? 0.4 * e_in : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    Castro::TagFn tag = [](int /*lev*/, const Geometry&, const MultiFab& s,
                           MultiFab& tags) {
        const Real thresh = 1.0e-8;
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (u(i, j, k, StateLayout::UTEMP) > thresh) t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    b.amr = std::make_unique<Castro>(geom, info, b.net, eos, opt,
                                     std::move(init), std::move(tag));
    b.amr->init();
    return b;
}

struct RunResult {
    std::int64_t coarse_updates = 0; // zone updates on levels < finest
    std::int64_t fine_updates = 0;   // zone updates on the finest level
    std::vector<std::int64_t> advances;
    double mass_drift = 0.0;
    double energy_drift = 0.0;
    int steps = 0;
};

RunResult runTo(Castro& amr, Real t_end) {
    RunResult r;
    r.advances.assign(static_cast<std::size_t>(amr.finestLevel()) + 1, 0);
    const Real m0 = amr.totalMass();
    const Real e0 = amr.totalEnergy();
    std::vector<std::int64_t> last(r.advances.size(), 0);
    while (amr.time() < t_end * (1.0 - 1e-12)) {
        amr.step(std::min(amr.estimateDt(), t_end - amr.time()));
        ++r.steps;
        for (int lev = 0; lev <= amr.finestLevel(); ++lev) {
            const auto l = static_cast<std::size_t>(lev);
            const std::int64_t adv = amr.advanceCount(lev) - last[l];
            last[l] = amr.advanceCount(lev);
            const std::int64_t upd = adv * amr.numZones(lev);
            if (lev < amr.finestLevel()) r.coarse_updates += upd;
            else r.fine_updates += upd;
            r.advances[l] += adv;
        }
        r.mass_drift =
            std::max(r.mass_drift, std::abs(amr.totalMass() / m0 - 1.0));
        r.energy_drift =
            std::max(r.energy_drift, std::abs(amr.totalEnergy() / e0 - 1.0));
    }
    return r;
}

} // namespace

int main() {
    benchutil::printHeader(
        "E13: subcycled AMR stepping — coarse-work reduction, conservation");

    const int max_level = 2, ncell = 16;
    auto sub = makeBlast(max_level, ncell);
    auto lock = makeBlast(max_level, ncell);
    lock.amr->subcycle = false;

    // End time ~8 subcycled coarse steps; the lockstep run needs
    // ref_ratio^finest as many hierarchy steps of the finest-limited dt.
    const Real t_end = 8.0 * sub.amr->estimateDt();

    const RunResult rs = runTo(*sub.amr, t_end);
    const RunResult rl = runTo(*lock.amr, t_end);

    std::printf("  3-level blast to t=%.3e: %d subcycled steps, %d lockstep\n",
                t_end, rs.steps, rl.steps);
    for (std::size_t l = 0; l < rs.advances.size(); ++l) {
        std::printf("  level %zu advances: subcycled %lld, lockstep %lld\n", l,
                    static_cast<long long>(rs.advances[l]),
                    static_cast<long long>(rl.advances[l]));
    }

    const double reduction = rs.coarse_updates > 0
                                 ? static_cast<double>(rl.coarse_updates) /
                                       static_cast<double>(rs.coarse_updates)
                                 : 0.0;
    benchutil::printRow("coarse-level zone-update reduction", reduction, 2.0,
                        "x (target >=)");
    benchutil::printRow("subcycled |dM/M| at sync points", rs.mass_drift, 1e-12,
                        "(target <=)");
    benchutil::printRow("subcycled |dE/E| at sync points", rs.energy_drift, 1e-12,
                        "(target <=)");
    benchutil::printRow("lockstep  |dM/M| at sync points", rl.mass_drift, 1e-12,
                        "(target <=)");

    const bool pass = reduction >= 2.0 && rs.mass_drift <= 1e-12 &&
                      rs.energy_drift <= 1e-12 && rl.mass_drift <= 1e-12;
    std::printf("\n  %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
