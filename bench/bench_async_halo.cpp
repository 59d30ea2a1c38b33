// Split-phase halo exchange ablation (E11): how much of a Castro hydro
// RK-stage does interior/boundary overlap recover? The paper's GPU port
// leaves the halo exchange as the step's only blocking phase; posting it
// with FillBoundary_nowait and sweeping every box interior while the
// messages are in flight hides the network time behind compute that was
// going to run anyway. Only the pack/unpack copies and the thin boundary
// shells remain on the critical path.
//
// Methodology (measured compute / modeled network, as in DESIGN.md):
// the stage's kernels run for real under the SimGpu backend and are
// priced by the DeviceModel (V100 params); the exchange's messages are
// recorded by a CommLedger and priced by the Summit-like NetworkModel as
// one bulk-synchronous phase. The device clock times the *whole domain's*
// kernels on one modeled GPU, while phaseTime is already a max over
// ranks, so kernel/copy times are scaled to the busiest rank's box share
// before they are combined (the boxes are identical, so a rank's compute
// is proportional to its box count). Per-rank step time:
//
//   fused : T = (t_copies + t_kernels)*f + T_net          (exchange blocks)
//   split : T = (t_pack + t_unpack + t_shell)*f + max(T_net, t_interior*f)
//
// with f = max boxes on any rank / total boxes.
//
// Output: one row per decomposition, with the modeled step-time
// reduction. Small boxes pay double copy launch latency (pack+unpack vs
// the fused path's single delivery copy) and have thick shells relative
// to their interiors — thin-slab launches also sit low on the device
// model's latency-hiding ramp — so the win peaks where a rank's interior
// compute roughly covers the network phase, the same box-size pressure
// as Figure 1.

#include "bench_util.hpp"
#include "castro/hydro.hpp"
#include "comm/halo_handle.hpp"
#include "comm/ledger.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/multifab.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

// A periodic Sedov-like blast on ncell^3 chopped into max_grid^3 boxes:
// dense enough that every kernel does real work, periodic so the stage
// is pure exchange + hydro (no physical-BC kernels in the timing).
struct Stage {
    Geometry geom;
    std::unique_ptr<MultiFab> state, dudt;
    const ReactionNetwork& net;
    Eos eos;

    Stage(int ncell, int max_grid, int nranks, const ReactionNetwork& n)
        : net(n), eos(GammaLawEos{1.4}) {
        Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
        geom = Geometry(dom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
        BoxArray ba(dom);
        ba.maxSize(max_grid);
        DistributionMapping dm(ba, nranks, DistributionMapping::Strategy::Sfc);
        const StateLayout layout(net.nspec());
        state = std::make_unique<MultiFab>(ba, dm, layout.ncomp(), 4);
        dudt = std::make_unique<MultiFab>(ba, dm, layout.ncomp(), 0);
        state->setVal(0.0);
        const Real cx = 0.5, cy = 0.5, cz = 0.5;
        for (std::size_t b = 0; b < state->size(); ++b) {
            auto u = state->array(static_cast<int>(b));
            const Box& vb = state->box(static_cast<int>(b));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        const Real x = geom.cellCenter(0, i) - cx;
                        const Real y = geom.cellCenter(1, j) - cy;
                        const Real z = geom.cellCenter(2, k) - cz;
                        const Real r2 = x * x + y * y + z * z;
                        const Real rho = 1.0;
                        const Real p = 1.0e-5 + std::exp(-r2 / 0.01);
                        u(i, j, k, StateLayout::URHO) = rho;
                        u(i, j, k, StateLayout::UEDEN) = p / 0.4;
                        u(i, j, k, StateLayout::UTEMP) = 1.0;
                        u(i, j, k, StateLayout::UFS) = rho;
                    }
        }
    }
};

struct Row {
    double t_sync, t_async, t_net, t_interior, overlap_hidden;
};

// Fraction of the domain's kernel time charged to the busiest rank: the
// boxes are all max_grid^3, so a rank's compute share is its box count.
double busiestRankShare(const MultiFab& mf) {
    const auto& ranks = mf.distributionMap().ranks();
    std::vector<int> count;
    for (int r : ranks) {
        if (r >= static_cast<int>(count.size())) count.resize(r + 1, 0);
        ++count[r];
    }
    const int mx = *std::max_element(count.begin(), count.end());
    return static_cast<double>(mx) / static_cast<double>(ranks.size());
}

Row runCase(Stage& st, const RankLayout& layout, const NetworkModel& netmod) {
    DeviceModel dev;
    dev.attach();
    CommLedger ledger;
    ledger.attach();
    MultiFab& s = *st.state;
    MultiFab& dudt = *st.dudt;
    const Periodicity per = st.geom.periodicity();
    const int nc = s.nComp();
    const double f = busiestRankShare(s);
    Row row{};

    auto netTime = [&] { return ledger.phaseTime(layout, netmod); };

    // --- fused stage: blocking exchange, then the full sweep.
    {
        dev.reset();
        ledger.reset();
        s.FillBoundary(0, nc, per);
        const double t_copies = dev.elapsedSeconds();
        const double t_net = netTime();
        dev.reset();
        molRhs(s, dudt, st.geom, st.net, st.eos);
        row.t_sync = (t_copies + dev.elapsedSeconds()) * f + t_net;
    }

    // --- split stage: post, interior, finish, shell.
    {
        ledger.reset();
        dev.reset();
        comm::HaloHandle halo = s.FillBoundary_nowait(0, nc, per);
        const double t_pack = dev.elapsedSeconds();
        const auto part = CopierCache::instance().interiorPartition(
            s.boxArray(), stencilWidth(Reconstruction::PLM));
        dev.reset();
        for (std::size_t fb = 0; fb < s.size(); ++fb) {
            if (!part->fabs[fb].interior.ok()) continue;
            molRhsRegions(s, dudt, static_cast<int>(fb),
                          {&part->fabs[fb].interior, 1}, st.geom, st.net, st.eos);
        }
        const double t_interior = dev.elapsedSeconds() * f;
        dev.reset();
        halo.finish();
        const double t_unpack = dev.elapsedSeconds();
        const double t_net = netTime();
        dev.reset();
        for (std::size_t fb = 0; fb < s.size(); ++fb) {
            molRhsRegions(s, dudt, static_cast<int>(fb), part->fabs[fb].shell,
                          st.geom, st.net, st.eos);
        }
        const double t_shell = dev.elapsedSeconds();
        row.t_async = (t_pack + t_unpack + t_shell) * f + std::max(t_net, t_interior);
        row.t_net = t_net;
        row.t_interior = t_interior;
        row.overlap_hidden = std::min(t_net, t_interior);
    }
    ledger.detach();
    dev.detach();
    return row;
}

} // namespace

int main() {
    benchutil::printHeader(
        "Ablation: split-phase halo exchange (interior/boundary overlap)");

    ScopedBackend backend(Backend::SimGpu);
    auto net = makeIgnitionSimple();
    const NetworkModel netmod; // Summit-like fabric (src/comm/network.hpp)

    std::printf("\nCastro RK-stage (PLM, stencil 2), fully periodic, modeled"
                " V100 + EDR fabric\n");
    std::printf("\n%-22s %-14s %10s %10s %10s %9s\n", "decomposition", "layout",
                "fused ms", "split ms", "hidden ms", "gain");
    struct Case {
        int ncell, max_grid, nranks, nodes;
    };
    // Box-size sweep at fixed domain + the headline production-like chop.
    const Case cases[] = {
        {64, 16, 8, 8},    // 64 boxes of 16^3: shells dominate, copies x2
        {128, 32, 8, 8},   // 64 boxes of 32^3
        {128, 64, 8, 8},   // 1 box of 64^3 per rank
        {128, 64, 4, 4},   // 2 boxes of 64^3 per rank
        {192, 64, 4, 4},   // 27 boxes of 64^3, ~7 per rank
        {256, 64, 8, 8},   // 64 boxes of 64^3, 8 per rank
        {256, 64, 16, 16}, // 4 boxes of 64^3 per rank
        {256, 128, 8, 8},  // 1 box of 128^3 per rank
    };
    for (const Case& c : cases) {
        Stage st(c.ncell, c.max_grid, c.nranks, net);
        RankLayout layout{c.nodes, c.nranks / c.nodes};
        const Row r = runCase(st, layout, netmod);
        const double gain = 100.0 * (1.0 - r.t_async / r.t_sync);
        char decomp[64], lay[32];
        std::snprintf(decomp, sizeof decomp, "%d^3 / %d^3 boxes", c.ncell,
                      c.max_grid);
        std::snprintf(lay, sizeof lay, "%dr x %dn", c.nranks, c.nodes);
        std::printf("%-22s %-14s %10.2f %10.2f %10.2f %8.1f%%\n", decomp, lay,
                    r.t_sync * 1e3, r.t_async * 1e3, r.overlap_hidden * 1e3, gain);
    }
    std::printf("\nfused  = copies + network + full sweep (exchange blocks)\n");
    std::printf("split  = pack + max(network, interior) + unpack + shell\n");
    std::printf("hidden = min(network, interior): comm time paid behind compute\n");
    return 0;
}
