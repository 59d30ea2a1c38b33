// Composite-grid FMG gravity ablation (E17): what do the FMG bootstrap,
// coarse-level rank aggregation, and split-phase smoother halos each buy
// on the multilevel Poisson solve the paper (SC 2020, §V) identifies as
// the exascale scaling gate?
//
// Methodology (measured compute / modeled network, as in DESIGN.md): a
// two-level hierarchy solves the manufactured-rhs Poisson problem to
// rtol = 1e-10 for real under the SimGpu backend; kernels are priced by
// the DeviceModel (V100 params) and scaled to the busiest rank's box
// share f. Every message the mesh layer would send is recorded from the
// event stream and priced individually with the NetworkModel's alpha-beta
// p2p cost, serialized per rank (T_net = the busiest rank's sum). The
// per-message latency pricing matters here: unlike a hydro step, an MG
// solve is thousands of tiny ghost exchanges — a 1-ghost face of a
// coarse rung's box is a few hundred bytes, so the ladder's bottom is
// pure injection latency and a solve-granularity bulk-phase model
// (CommLedger::phaseTime, which pays latency once per rank pair) would
// hide exactly the cost aggregation removes.
//
//   T = t_kernels*f + max(0, T_net - hidden)
//
// with hidden = min(T_net, t_overlap*f): each red-black half-sweep posts
// its exchange and smooths fab interiors while the traffic is in flight,
// so the modeled time of exactly those mg_smooth launches (the ones that
// run between a HaloEvent Posted and its Finished) can cover the network
// time. Eager exchanges finish before their launch, and one-box rungs and
// the replayed bottom (mg_bottom) post none, so none of them count (an
// aggregate treatment of per-half-sweep overlap).
//
// The levers move different terms. The FMG bootstrap cuts *cycles*
// (kernel and network time together): one full-multigrid pass lands
// within discretization error, so the V-cycle loop starts nearly
// converged. Aggregation cuts *messages*: few-zone coarse rungs relaid
// onto fewer ranks turn the latency-bound all-to-all chatter of the
// ladder's bottom into on-rank copies (the staging ParallelCopies are
// priced too — agg bytes buys message-count reduction). Split-phase
// halos, on in every configuration, cut the *exposed* network time
// without changing a single bit of the answer (ctest -L gravity pins the
// bit-identities).

#include "bench_util.hpp"
#include "comm/network.hpp"
#include "core/events.hpp"
#include "core/parallel_for.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

using namespace exa;

namespace {

struct Hier {
    std::vector<Geometry> geoms;
    std::vector<BoxArray> bas;
    std::vector<DistributionMapping> dms;
    std::vector<MultiFab> phi, rhs;
};

// Two-level hierarchy on the unit cube: base n^3, central half refined
// by 2, product-of-sines rhs (the test suite's manufactured problem at
// bench scale).
Hier makeHier(int n, int max_grid, int nranks) {
    Hier h;
    const Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
    h.geoms.emplace_back(dom, std::array<Real, 3>{0, 0, 0},
                         std::array<Real, 3>{1, 1, 1}, IntVect{0, 0, 0});
    BoxArray ba0(dom);
    ba0.maxSize(max_grid);
    h.bas.push_back(ba0);
    h.dms.emplace_back(ba0, nranks);
    const Box fine = refine(Box({n / 4, n / 4, n / 4},
                                {3 * n / 4 - 1, 3 * n / 4 - 1, 3 * n / 4 - 1}),
                            2);
    h.geoms.push_back(h.geoms[0].refined(2));
    BoxArray ba1(fine);
    ba1.maxSize(max_grid);
    h.bas.push_back(ba1);
    h.dms.emplace_back(ba1, nranks);

    const Real k = constants::pi;
    for (std::size_t lev = 0; lev < h.geoms.size(); ++lev) {
        h.phi.emplace_back(h.bas[lev], h.dms[lev], 1, 1);
        h.rhs.emplace_back(h.bas[lev], h.dms[lev], 1, 0);
        h.phi[lev].setVal(0.0);
        const Geometry g = h.geoms[lev];
        for (std::size_t i = 0; i < h.rhs[lev].size(); ++i) {
            auto r = h.rhs[lev].array(static_cast<int>(i));
            ParallelFor(h.rhs[lev].box(static_cast<int>(i)),
                        [=](int ii, int j, int kk) {
                r(ii, j, kk) = -3.0 * k * k *
                               std::sin(k * g.cellCenter(0, ii)) *
                               std::sin(k * g.cellCenter(1, j)) *
                               std::sin(k * g.cellCenter(2, kk));
            });
        }
    }
    return h;
}

double busiestRankShare(const DistributionMapping& dm) {
    const auto& ranks = dm.ranks();
    std::vector<int> count;
    for (int r : ranks) {
        if (r >= static_cast<int>(count.size())) count.resize(r + 1, 0);
        ++count[r];
    }
    const int mx = *std::max_element(count.begin(), count.end());
    return static_cast<double>(mx) / static_cast<double>(ranks.size());
}

// Modeled time of the mg_smooth launches that run while a split-phase
// exchange is in flight: the only kernel time that can cover the solve's
// network time.
struct OverlapClock {
    explicit OverlapClock(const DeviceModel* d) : dev(d) {}

    const DeviceModel* dev = nullptr;
    int in_flight = 0;
    double seconds = 0.0;
    EventSubscription halos, launches;

    void attach() {
        halos = events::subscribe<HaloEvent>([this](const HaloEvent& e) {
            in_flight += e.phase == HaloPhase::Posted ? 1 : -1;
        });
        launches = events::subscribe<LaunchRecord>([this](const LaunchRecord& r) {
            if (in_flight > 0 && std::string_view(r.info.name) == "mg_smooth")
                seconds += dev->launchTime(r);
        });
    }
    void detach() {
        halos.reset();
        launches.reset();
    }
};

// Per-rank serialized network clock: every recorded message pays its
// full alpha-beta p2p cost at both endpoints; the solve's network time
// is the busiest rank's sum.
struct NetClock {
    NetClock(const RankLayout& l, const NetworkModel* n) : layout(l), net(n) {}

    RankLayout layout;
    const NetworkModel* net = nullptr;
    std::vector<double> rank_time;
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    EventSubscription sub;

    void attach() {
        rank_time.assign(static_cast<std::size_t>(layout.numRanks()), 0.0);
        sub = events::subscribe<MessageRecord>([this](const MessageRecord& r) {
            if (r.src_rank == r.dst_rank) return;
            if (r.src_rank >= layout.numRanks() ||
                r.dst_rank >= layout.numRanks())
                return;
            const double t = net->p2pTime(
                r.bytes, layout.sameNode(r.src_rank, r.dst_rank), layout.nodes);
            rank_time[static_cast<std::size_t>(r.src_rank)] += t;
            rank_time[static_cast<std::size_t>(r.dst_rank)] += t;
            ++msgs;
            bytes += r.bytes;
        });
    }
    void detach() { sub.reset(); }
    double time() const {
        return rank_time.empty()
                   ? 0.0
                   : *std::max_element(rank_time.begin(), rank_time.end());
    }
};

struct Row {
    CompositeMgResult res;
    double t_kernel = 0.0, t_net = 0.0, hidden = 0.0;
    std::int64_t msgs = 0;
    std::map<std::string, DeviceModel::KernelStats> kernels;
    double total() const {
        return t_kernel + std::max(0.0, t_net - hidden);
    }
};

// One solve configuration: the hierarchy decomposition plus the ladder
// options under test.
struct Config {
    int n = 128, max_grid = 32, nranks = 64, nodes = 16;
    int ladder_max_grid = 32; // geometric rungs keep the AMR granularity
    int min_level_side = 2;   // ladder bottom (side of the coarsest rung)
    std::int64_t azr = 4096;  // agg_zones_per_rank
};

Row runCase(const Config& cfg, const RankLayout& layout,
            const NetworkModel& netmod, bool fmg, bool agg) {
    Hier h = makeHier(cfg.n, cfg.max_grid, cfg.nranks);
    CompositeMgOptions opt;
    opt.rtol = 1.0e-10;
    opt.fmg = fmg;
    opt.aggregate_coarse = agg;
    opt.nranks = cfg.nranks;
    opt.max_grid_size = cfg.ladder_max_grid;
    opt.min_level_side = cfg.min_level_side;
    opt.agg_zones_per_rank = cfg.azr;
    CompositeMg mg(h.geoms, h.bas, h.dms, 2, MgBC::Dirichlet, opt);
    std::vector<MultiFab*> phi{&h.phi[0], &h.phi[1]};
    std::vector<const MultiFab*> rhs{&h.rhs[0], &h.rhs[1]};

    DeviceModel dev;
    dev.attach();
    NetClock clock(layout, &netmod);
    clock.attach();
    OverlapClock overlap(&dev);
    overlap.attach();
    Row row;
    row.res = mg.solve(phi, rhs);
    const double f = busiestRankShare(h.dms[0]);
    row.t_kernel = dev.elapsedSeconds() * f;
    row.kernels = dev.kernelStats();
    row.t_net = clock.time();
    row.msgs = clock.msgs;
    row.hidden = std::min(row.t_net, overlap.seconds * f);
    overlap.detach();
    clock.detach();
    dev.detach();
    return row;
}

// Where the modeled device time of one solve goes: launches, mean zones
// per launch and serialized modeled time of every kernel (whole device,
// not scaled to the busiest rank), the most expensive first.
void printKernelTable(const char* label, const Row& r) {
    std::vector<std::pair<std::string, DeviceModel::KernelStats>> rows(r.kernels.begin(),
                                                                      r.kernels.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.seconds > b.second.seconds;
    });
    std::printf("\nPer-kernel modeled time, %s:\n%-20s %9s %12s %12s\n", label, "kernel",
                "launches", "mean zones", "modeled ms");
    for (const auto& [name, ks] : rows) {
        std::printf("%-20s %9lld %12.1f %12.3f\n", name.c_str(),
                    static_cast<long long>(ks.launches),
                    static_cast<double>(ks.zones) / static_cast<double>(ks.launches),
                    ks.seconds * 1e3);
    }
}

} // namespace

void runSweep(const char* title, const Config& cfg,
              const NetworkModel& netmod) {
    const RankLayout layout{cfg.nodes, cfg.nranks / cfg.nodes};
    std::printf("\n%s\nTwo-level hierarchy: %d^3 base + %d^3-refined central "
                "half, %d^3 boxes, %d ranks x %d nodes,\nladder boxes %d^3 "
                "down to a %d^3 bottom, agg threshold %lld zones/rank, "
                "rtol 1e-10\n",
                title, cfg.n, cfg.n, cfg.max_grid, cfg.nranks, cfg.nodes,
                cfg.ladder_max_grid, cfg.min_level_side,
                static_cast<long long>(cfg.azr));
    std::printf("\n%-28s %7s %7s %9s %10s %10s %10s %10s\n", "configuration",
                "cycles", "sweeps", "msgs", "kernel ms", "net ms", "hidden ms",
                "total ms");

    struct Case {
        const char* label;
        bool fmg, agg;
    };
    const Case cases[] = {
        {"V-cycles only", false, false},
        {"FMG bootstrap", true, false},
        {"FMG + aggregation", true, true},
    };
    double t_base = 0.0;
    Row r;
    for (const Case& c : cases) {
        r = runCase(cfg, layout, netmod, c.fmg, c.agg);
        if (t_base == 0.0) t_base = r.total();
        std::printf("%-28s %7d %7lld %9lld %10.2f %10.2f %10.2f %10.2f",
                    c.label, r.res.all_vcycles,
                    static_cast<long long>(r.res.sweeps),
                    static_cast<long long>(r.msgs), r.t_kernel * 1e3,
                    r.t_net * 1e3, r.hidden * 1e3, r.total() * 1e3);
        std::printf("   (%.2fx", t_base / r.total());
        if (c.agg)
            std::printf(", %lld agg copies / %.1f KiB",
                        static_cast<long long>(r.res.agg_copies),
                        static_cast<double>(r.res.agg_bytes) / 1024.0);
        std::printf(")\n");
    }
    printKernelTable(cases[std::size(cases) - 1].label, r);
}

int main() {
    benchutil::printHeader(
        "Ablation: composite FMG gravity (bootstrap, coarse aggregation; "
        "split halos throughout)");

    ScopedBackend backend(Backend::SimGpu);
    const NetworkModel netmod; // Summit-like fabric (src/comm/network.hpp)
    std::printf("\nModeled V100 + EDR fabric; "
                "total = kernel*f + max(0, net - hidden),\n"
                "f = busiest rank's box share, hidden = min(net, "
                "mg_smooth time with an exchange in flight)\n");

    // Latency regime: small boxes spread over many ranks — the ladder's
    // coarse rungs are pure injection-latency chatter, the regime coarse
    // aggregation exists for (the 32^3 rung collapses onto one rank; the
    // single-box rungs below it carry no exchange either way).
    {
        Config cfg;
        cfg.n = 64;
        cfg.max_grid = 16;
        cfg.nranks = 64;
        cfg.nodes = 16;
        cfg.ladder_max_grid = 16;
        cfg.min_level_side = 2;
        cfg.azr = 32768;
        runSweep("--- latency regime ---", cfg, netmod);
    }

    // Bandwidth/overlap regime: production-size boxes, one per rank per
    // level — shells are thin relative to interiors, so split-phase
    // halos hide the fine rungs' exchange behind interior smoothing.
    {
        Config cfg;
        cfg.n = 256;
        cfg.max_grid = 128;
        cfg.nranks = 8;
        cfg.nodes = 8;
        cfg.ladder_max_grid = 128;
        cfg.min_level_side = 2;
        cfg.azr = 32768;
        runSweep("--- bandwidth/overlap regime ---", cfg, netmod);
    }
    return 0;
}
