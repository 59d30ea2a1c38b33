#include "resilience/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <exception>

namespace exa::resilience {

namespace {

// splitmix64 finalizer — the same mixer the fault registry uses, so the
// per-run seed perturbation is a full-avalanche function of (base, run).
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

double CampaignReport::survivalRate() const {
    if (runs.empty()) return 1.0;
    int ok = 0;
    for (const CampaignRunResult& r : runs) ok += r.survived ? 1 : 0;
    return static_cast<double>(ok) / static_cast<double>(runs.size());
}

int CampaignReport::totalRanksRecovered() const {
    int n = 0;
    for (const CampaignRunResult& r : runs) n += r.ranks_recovered;
    return n;
}

int CampaignReport::totalReplaySteps() const {
    int n = 0;
    for (const CampaignRunResult& r : runs) n += r.replay_steps;
    return n;
}

std::string CampaignReport::summary() const {
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "campaign: %zu runs, survival %.0f%%, %d rank(s) recovered, "
                  "%d replay step(s)\n",
                  runs.size(), 100.0 * survivalRate(), totalRanksRecovered(),
                  totalReplaySteps());
    out += buf;
    for (const CampaignRunResult& r : runs) {
        std::snprintf(
            buf, sizeof(buf),
            "  run %d: %s  failed=%d recovered=%d replay=%d rollback=%d "
            "ckpt=%lld (%lld B) recovery=%.3fs wall=%.3fs\n",
            r.run, r.survived ? "survived" : "FAILED", r.ranks_failed,
            r.ranks_recovered, r.replay_steps, r.full_rollbacks,
            static_cast<long long>(r.checkpoints_written),
            static_cast<long long>(r.checkpoint_bytes), r.recovery_seconds,
            r.wall_seconds);
        out += buf;
        if (!r.survived && !r.error.empty()) {
            out += "    error: " + r.error + "\n";
        }
    }
    return out;
}

CampaignReport runCampaign(
    const std::function<std::shared_ptr<Driver>(int)>& makeRun,
    const CampaignOptions& opt) {
    CampaignReport report;
    report.runs.reserve(static_cast<std::size_t>(opt.nseeds));
    for (int run = 0; run < opt.nseeds; ++run) {
        fault::disarmAll();
        const std::uint64_t perturb = mix(opt.base_seed + static_cast<std::uint64_t>(run));
        for (const CampaignFaultSpec& f : opt.faults) {
            fault::Spec spec = f.spec;
            spec.seed ^= perturb;
            fault::arm(f.site, spec);
        }

        CampaignRunResult result;
        result.run = run;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            const std::shared_ptr<Driver> driver = makeRun(run);
            SupervisorOptions sopt = opt.supervisor;
            sopt.checkpoint.dir = opt.workdir + "/run_" + std::to_string(run);
            sopt.victim_seed ^= perturb;
            ResilienceSupervisor sup(*driver, sopt);
            try {
                sup.runSteps(opt.steps);
                result.survived = true;
            } catch (const std::exception& e) {
                result.survived = false;
                result.error = e.what();
            }
            // Stats are coherent either way: runSteps syncs the
            // checkpointer tallies before an unrecoverable throw escapes.
            const SupervisorReport& rep = sup.report();
            result.ranks_failed = rep.ranks_failed;
            result.ranks_recovered = rep.ranks_recovered;
            result.replay_steps = rep.replay_steps;
            result.full_rollbacks = rep.full_rollbacks;
            result.checkpoints_written = rep.checkpoints_written;
            result.checkpoint_bytes = rep.checkpoint_bytes;
            result.recovery_seconds = rep.recovery_seconds;
        } catch (const std::exception& e) {
            // Problem construction / supervisor setup failed.
            result.survived = false;
            result.error = e.what();
        }
        result.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        report.runs.push_back(std::move(result));
    }
    fault::disarmAll();
    return report;
}

} // namespace exa::resilience
