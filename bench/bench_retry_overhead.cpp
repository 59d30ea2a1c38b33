// Experiment E10: what does the safety net cost when nothing goes wrong?
//
// The StepGuard snapshots the state, re-validates after every step, and
// only pays rollback + re-advance when a step is actually invalid. The
// clean-path overhead (snapshot copy + validation scan) is the price of
// always-on resilience; target < 5% of step time at production-like box
// sizes, where the O(N) copy/scan is small next to the O(N) x stages x
// stencil hydro work. Also reported: the measured cost of one forced
// rollback, and of a guarded step that degrades after exhausting
// retries.

#include "bench_util.hpp"
#include "castro/sedov.hpp"
#include "castro/validate.hpp"
#include "core/fault.hpp"
#include "mesh/step_guard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

using namespace exa;
using namespace exa::castro;

namespace {

double secondsPerStep(Castro& c, int nsteps, Real dt) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < nsteps; ++s) c.step(dt);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / nsteps;
}

template <typename F>
double bestSeconds(int reps, F&& f) {
    double best = 1.0e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

std::unique_ptr<Castro> blast(const ReactionNetwork& net, int ncell, bool guarded) {
    SedovParams p;
    p.ncell = ncell;
    p.max_grid_size = 16;
    p.guard.enabled = guarded;
    return p.build(net);
}

} // namespace

int main() {
    benchutil::printHeader(
        "E10: step-retry (StepGuard) overhead on the Sedov blast");
    fault::disarmAll();
    auto net = makeIgnitionSimple();

    // The guard's clean-path additions are exactly one snapshot capture
    // and one validation sweep per step; measure those components directly
    // against the step they wrap (ratios are stable under ambient load,
    // unlike end-to-end A/B wall clocks).
    std::printf("\nClean-path overhead (guard armed, no faults):\n");
    std::printf("  %8s %12s %13s %13s %10s\n", "ncell", "s/step",
                "snapshot ms", "validate ms", "overhead");
    for (int ncell : {16, 32, 48}) {
        auto c = blast(net, ncell, true);
        const Real dt = 0.5 * c->estimateDt();
        c->step(dt); // warm the arena pool
        const double t_step = bestSeconds(3, [&] {
            for (int s = 0; s < 4; ++s) c->step(dt);
        }) / 4.0;
        const double t_snap = bestSeconds(8, [&] {
            StateSnapshot snap;
            snap.capture(c->state());
            snap.restoreTo(0, c->state());
        }) / 2.0; // capture and restore each move the state once
        StepGuardOptions vopt;
        const double t_val = bestSeconds(8, [&] {
            const auto rep = castro::validateState(c->state(), net.nspec(), vopt);
            if (!rep.ok()) std::printf("  (unexpected invalid state)\n");
        });
        std::printf("  %8d %12.5f %13.3f %13.3f %9.2f%%\n", ncell, t_step,
                    1e3 * t_snap, 1e3 * t_val,
                    100.0 * (t_snap + t_val) / t_step);
    }

    std::printf("\nFault-path cost (32^3, one step):\n");
    {
        auto c = blast(net, 32, true);
        const Real dt = 0.5 * c->estimateDt();
        c->step(dt);
        const double t_clean = secondsPerStep(*c, 4, dt);

        double t_retry;
        {
            fault::ScopedFault f(fault::Site::HydroNanFlux); // one rollback
            t_retry = secondsPerStep(*c, 1, dt);
        }
        const auto retried = c->retryStats().retries;

        SedovParams p;
        p.ncell = 32;
        p.max_grid_size = 16;
        p.guard.enabled = true;
        p.guard.max_retries = 3;
        p.guard.policy = RetryPolicy::ClampAndWarn;
        auto d = p.build(net);
        const Real ddt = 0.5 * d->estimateDt();
        d->step(ddt);
        double t_degrade;
        {
            fault::Spec forever;
            forever.count = 0;
            fault::ScopedFault f(fault::Site::HydroNanFlux, forever);
            t_degrade = secondsPerStep(*d, 1, ddt);
        }

        std::printf("  clean guarded step:            %10.5f s\n", t_clean);
        std::printf("  one rollback + re-advance:     %10.5f s (%.2fx, retries=%lld)\n",
                    t_retry, t_retry / t_clean,
                    static_cast<long long>(retried));
        std::printf("  exhausted retries (degrade):   %10.5f s (%.2fx, degraded=%lld)\n",
                    t_degrade, t_degrade / t_clean,
                    static_cast<long long>(d->retryStats().degraded));
    }

    std::printf("\nSnapshot footprint: one state clone per guarded step "
                "(pool-arena handle reuse after the first).\n");
    return 0;
}
