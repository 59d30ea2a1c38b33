// Experiment E15: what does always-on resilience cost when nothing
// fails, and what does a failure cost when one does?
//
// Part 1 — clean-path overhead: the supervised step loop pays only the
// blocking staging copy of each Daly-scheduled checkpoint (the file I/O
// drains on a background thread). Measured as supervised-vs-plain wall
// time over the same Sedov trajectory at the Daly interval, in 5 rounds
// that alternate which side runs first; target < 5%. One round cannot
// resolve that target (single runs of the same code read -10 % to
// +28 %), so the bench prints the median overhead and its quartiles and
// gives a verdict only when the quartile spread is narrower than 5 %. A
// sync (write-through) supervisor is measured in every round too, to
// show what the async drain is buying.
//
// Part 2 — recovery cost vs fault rate: seeded rank-failure campaigns at
// increasing fault probability, reporting survival rate, mean replay
// steps per failure, recovery wall time, and checkpoint overhead, with
// the Daly interval the checkpointer converged to.

#include "bench_util.hpp"
#include "castro/sedov.hpp"
#include "core/fault.hpp"
#include "resilience/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

using namespace exa;
using namespace exa::resilience;

namespace {

std::unique_ptr<castro::Castro> blast(const ReactionNetwork& net, int ncell,
                                      int nranks) {
    castro::SedovParams p;
    p.ncell = ncell;
    p.max_grid_size = 16;
    p.nranks = nranks;
    p.guard.enabled = true;
    return p.build(net);
}

double wallSeconds(const std::function<void()>& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int main() {
    benchutil::printHeader(
        "E15: resilience supervisor — clean-path overhead and recovery cost");

    const std::string workdir = "/tmp/exastro_bench_resilience";
    std::filesystem::remove_all(workdir);
    auto net = makeIgnitionSimple();
    const int ncell = 32;
    const int nranks = 8;
    const int nsteps = 24;

    // ---- Part 1: clean-path overhead at the Daly interval ----
    fault::disarmAll();

    auto runPlain = [&] {
        auto c = blast(net, ncell, nranks);
        return wallSeconds([&] {
            for (int i = 0; i < nsteps; ++i) c->step(c->estimateDt());
        });
    };
    int daly_interval = 0;
    std::int64_t ckpts_async = 0;
    auto runSupervised = [&](bool async) {
        auto c = blast(net, ncell, nranks);
        SupervisorOptions opt;
        opt.checkpoint.dir = workdir + (async ? "/clean_async" : "/clean_sync");
        opt.checkpoint.async = async;
        // No armed fault: Daly runs off the measured staging/step costs
        // and the default 1000-step MTBF prior.
        opt.nranks = nranks;
        ResilienceSupervisor sup(*c, opt);
        const double t = wallSeconds([&] { sup.runSteps(nsteps); });
        if (async) {
            daly_interval = sup.report().daly_interval_steps;
            ckpts_async = sup.report().checkpoints_written;
        }
        return t;
    };

    // Each round times the plain loop and both supervised loops, the
    // plain one first in even rounds and last in odd ones; the overheads
    // are per round, against that round's plain time.
    const int rounds = 5;
    std::vector<double> plain_s, async_pct, sync_pct;
    for (int r = 0; r < rounds; ++r) {
        double tp = 0.0;
        if (r % 2 == 0) tp = runPlain();
        const double ta = runSupervised(true);
        const double ts = runSupervised(false);
        if (r % 2 == 1) tp = runPlain();
        plain_s.push_back(tp);
        async_pct.push_back(100.0 * (ta / tp - 1.0));
        sync_pct.push_back(100.0 * (ts / tp - 1.0));
    }

    std::printf("\nclean path: Sedov %d^3, %d ranks, %d steps, %d alternating rounds;"
                " median [quartiles]\n",
                ncell, nranks, nsteps, rounds);
    const benchutil::Quartiles qp = benchutil::quartiles(plain_s);
    const benchutil::Quartiles qa = benchutil::quartiles(async_pct);
    const benchutil::Quartiles qs = benchutil::quartiles(sync_pct);
    std::printf("  %-28s %8.3f s  [%.3f, %.3f]\n", "plain (no supervisor)", qp.median,
                qp.lo, qp.hi);
    std::printf("  %-28s overhead %+6.1f%%  [%+.1f, %+.1f]  (%lld ckpts, Daly %d)\n",
                "supervised, async drain", qa.median, qa.lo, qa.hi,
                static_cast<long long>(ckpts_async), daly_interval);
    std::printf("  %-28s overhead %+6.1f%%  [%+.1f, %+.1f]\n",
                "supervised, write-through", qs.median, qs.lo, qs.hi);
    if (qa.hi - qa.lo < 5.0) {
        std::printf("  target: async overhead < 5%% at the Daly interval: %s\n",
                    qa.median < 5.0 ? "met" : "NOT met");
    } else {
        std::printf("  target: async overhead < 5%% at the Daly interval: unresolved"
                    " (quartile spread %.1f%% >= 5%%)\n",
                    qa.hi - qa.lo);
    }

    // ---- Part 2: recovery cost vs fault rate ----
    std::printf("\nrecovery vs fault rate: %d-seed campaigns, %d steps each\n",
                4, nsteps);
    std::printf("  %-10s %-9s %-9s %-12s %-12s %-10s\n", "p(fail)",
                "survival", "kills", "replay/kill", "recovery[s]", "ckpt[MB]");
    for (const double p : {0.02, 0.05, 0.10, 0.20}) {
        CampaignOptions opt;
        opt.nseeds = 4;
        opt.steps = nsteps;
        opt.base_seed = 0xE15;
        opt.workdir = workdir + "/p" + std::to_string(int(p * 100));
        opt.supervisor.nranks = nranks;
        CampaignFaultSpec kill;
        kill.site = fault::Site::RankFailure;
        kill.spec.probability = p;
        opt.faults = {kill};

        const CampaignReport rep = runCampaign(
            [&](int /*run*/) {
                return std::shared_ptr<Driver>(blast(net, ncell, nranks));
            },
            opt);

        int kills = rep.totalRanksRecovered();
        double recovery_s = 0.0;
        std::int64_t ckpt_bytes = 0;
        for (const CampaignRunResult& r : rep.runs) {
            recovery_s += r.recovery_seconds;
            ckpt_bytes += r.checkpoint_bytes;
        }
        std::printf("  %-10.2f %-9.0f %-9d %-12.1f %-12.3f %-10.1f\n", p,
                    100.0 * rep.survivalRate(), kills,
                    kills > 0 ? static_cast<double>(rep.totalReplaySteps()) /
                                    kills
                              : 0.0,
                    recovery_s,
                    static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0));
    }
    std::printf("\n(survival < 100%% at high rates is expected once fewer "
                "ranks remain\n than concurrent failures require, or a "
                "failure lands before the first\n committed checkpoint.)\n");

    std::filesystem::remove_all(workdir);
    return 0;
}
