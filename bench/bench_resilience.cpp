// Experiment E15: what does always-on resilience cost when nothing
// fails, and what does a failure cost when one does?
//
// Part 1 — clean-path overhead: the supervised step loop pays only the
// blocking staging copy of each Daly-scheduled checkpoint (the file I/O
// drains on a background thread). Measured as supervised-vs-plain wall
// time over the same Sedov trajectory at the Daly interval; target < 5%.
// A sync (write-through) supervisor is measured alongside to show what
// the async drain is buying.
//
// Part 2 — recovery cost vs fault rate: seeded rank-failure campaigns at
// increasing fault probability, reporting survival rate, mean replay
// steps per failure, recovery wall time, and checkpoint overhead, with
// the Daly interval the checkpointer converged to.

#include "bench_util.hpp"
#include "castro/sedov.hpp"
#include "core/fault.hpp"
#include "resilience/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>

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
    p.guard.verbose = false;
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

    auto plain = blast(net, ncell, nranks);
    const double t_plain = wallSeconds([&] {
        for (int i = 0; i < nsteps; ++i) plain->step(plain->estimateDt());
    });

    double t_async = 0.0, t_sync = 0.0;
    int daly_interval = 0;
    std::int64_t ckpts_async = 0;
    for (const bool async : {true, false}) {
        auto c = blast(net, ncell, nranks);
        SupervisorOptions opt;
        opt.checkpoint.dir =
            workdir + (async ? "/clean_async" : "/clean_sync");
        opt.checkpoint.async = async;
        // No armed fault: Daly runs off the measured staging/step costs
        // and the default 1000-step MTBF prior.
        opt.nranks = nranks;
        ResilienceSupervisor sup(*c, opt);
        const double t = wallSeconds([&] { sup.runSteps(nsteps); });
        if (async) {
            t_async = t;
            daly_interval = sup.report().daly_interval_steps;
            ckpts_async = sup.report().checkpoints_written;
        } else {
            t_sync = t;
        }
    }

    std::printf("\nclean path: Sedov %d^3, %d ranks, %d steps\n", ncell,
                nranks, nsteps);
    std::printf("  %-28s %10.3f s\n", "plain (no supervisor)", t_plain);
    std::printf("  %-28s %10.3f s  overhead %+5.1f%%  (%lld ckpts, Daly %d)\n",
                "supervised, async drain", t_async,
                100.0 * (t_async / t_plain - 1.0),
                static_cast<long long>(ckpts_async), daly_interval);
    std::printf("  %-28s %10.3f s  overhead %+5.1f%%\n",
                "supervised, write-through", t_sync,
                100.0 * (t_sync / t_plain - 1.0));
    std::printf("  target: async overhead < 5%% at the Daly interval\n");

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
