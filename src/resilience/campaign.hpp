#pragma once

// Fault-campaign harness: many supervised runs of the same problem under
// a multi-fault schedule, each with a deterministically perturbed seed.
//
// A campaign answers the question the supervisor alone cannot: across the
// *ensemble* of fault timings a given fault rate implies, how often does
// the run survive to completion, how much replay does recovery cost, and
// what checkpoint overhead was paid for it? Each run arms the schedule's
// sites with `spec.seed ^= mix(base_seed + run)` and perturbs the victim
// seed the same way, so base_seed fixes each site's fire/no-fire decision
// per hit and the rank each kill takes. It does not fix the rest: unless
// supervisor.checkpoint.interval_hint pins the interval, the checkpoint
// steps follow the Daly interval, which is fed by measured staging and
// step wall times, so checkpoint steps and bytes, replay steps and the
// extra hits a replay makes can differ between two runs of one campaign.

#include "core/fault.hpp"
#include "resilience/supervisor.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace exa::resilience {

struct CampaignFaultSpec {
    fault::Site site = fault::Site::RankFailure;
    fault::Spec spec;
};

struct CampaignOptions {
    int nseeds = 4;       // independent runs (seed perturbations)
    int steps = 16;       // accepted steps per run
    std::uint64_t base_seed = 0xCA3Bull;
    std::string workdir = "campaign"; // per-run checkpoint dirs live here
    std::vector<CampaignFaultSpec> faults;
    // Template for every run's supervisor; checkpoint.dir is overridden
    // with <workdir>/run_<k> and victim_seed is perturbed per run.
    SupervisorOptions supervisor;
};

struct CampaignRunResult {
    int run = 0;
    bool survived = false;
    std::string error; // empty when survived
    int ranks_failed = 0;
    int ranks_recovered = 0;
    int replay_steps = 0;
    int full_rollbacks = 0;
    std::int64_t checkpoints_written = 0;
    std::int64_t checkpoint_bytes = 0;
    double recovery_seconds = 0.0;
    double wall_seconds = 0.0;
};

struct CampaignReport {
    std::vector<CampaignRunResult> runs;

    double survivalRate() const;
    int totalRanksRecovered() const;
    int totalReplaySteps() const;
    std::string summary() const;
};

// Run the campaign: for each of opt.nseeds runs, disarm all sites, arm
// the schedule with the run's perturbed seeds, build a fresh driver via
// makeRun(run) (the pointer keeps whatever the driver references alive
// for the run), and drive it opt.steps accepted steps under a
// ResilienceSupervisor. A run survives if runSteps returns; any exception
// (unrecoverable failure, both slots corrupt, all ranks dead) marks it
// failed with the message recorded. All sites are disarmed on return.
CampaignReport runCampaign(
    const std::function<std::shared_ptr<Driver>(int)>& makeRun,
    const CampaignOptions& opt);

} // namespace exa::resilience
