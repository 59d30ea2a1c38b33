#include "core/fault.hpp"
#include "maestro/maestro.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

using namespace exa;
using namespace exa::maestro;

namespace {

// A reacting bubble hot enough that every bubble zone burns, under the
// step guard. The net must outlive the driver (held by const&).
struct GuardedBubble {
    ReactionNetwork net = makeIgnitionSimple();
    std::unique_ptr<Maestro> m;

    explicit GuardedBubble(const StepGuardOptions& guard) {
        BubbleParams p;
        p.ncell = 8;
        p.max_grid_size = 8;
        p.do_react = true;
        p.T_bubble = 1.0e9;
        p.guard = guard;
        m = p.build(net);
    }
};

StepGuardOptions quietGuard() {
    StepGuardOptions g;
    g.enabled = true;
    return g;
}

bool stateIsFinite(const MultiFab& s) {
    for (std::size_t b = 0; b < s.size(); ++b) {
        auto q = s.const_array(static_cast<int>(b));
        const Box& vb = s.box(static_cast<int>(b));
        for (int n = 0; n < s.nComp(); ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        if (!std::isfinite(q(i, j, k, n))) return false;
    }
    return true;
}

// Valid-region values (all components) in which two MultiFabs on the same
// layout differ bitwise.
std::int64_t countDiffs(const MultiFab& a, const MultiFab& b) {
    std::int64_t n = 0;
    for (std::size_t f = 0; f < a.size(); ++f) {
        auto p = a.const_array(static_cast<int>(f));
        auto q = b.const_array(static_cast<int>(f));
        const Box& vb = a.box(static_cast<int>(f));
        for (int c = 0; c < a.nComp(); ++c)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        if (std::memcmp(&p(i, j, k, c), &q(i, j, k, c),
                                        sizeof(Real)) != 0)
                            ++n;
    }
    return n;
}

} // namespace

TEST(MaestroGuard, CleanGuardedStepIsClean) {
    fault::disarmAll();
    GuardedBubble gb(quietGuard());
    const auto burn = gb.m->step(1.0e-8);
    EXPECT_GT(burn.zones, 0);
    EXPECT_EQ(gb.m->retryStats().steps_guarded, 1);
    EXPECT_EQ(gb.m->retryStats().retries, 0);
    EXPECT_EQ(gb.m->stepCount(), 1);
}

TEST(MaestroGuard, InjectedBurnFailureRetriesAndConverges) {
    fault::disarmAll();
    GuardedBubble gb(quietGuard());

    fault::ScopedFault f(fault::Site::BurnZoneFailure); // first burn fails
    const auto burn = gb.m->step(1.0e-8);

    EXPECT_EQ(fault::stats(fault::Site::BurnZoneFailure).fires, 1);
    EXPECT_GE(gb.m->retryStats().retries, 1);
    EXPECT_EQ(burn.failures, 0); // the accepted attempt burned cleanly
    EXPECT_EQ(gb.m->stepCount(), 1);
    EXPECT_DOUBLE_EQ(gb.m->time(), 1.0e-8);
    EXPECT_TRUE(stateIsFinite(gb.m->state()));
    EXPECT_GT(gb.m->state().min(MaestroLayout::QT), 0.0);
}

// A rollback must restore everything the step reads. The failed
// attempt's projection has already overwritten phi, the next solve's warm
// start, so the retry is the run an unguarded twin makes in two half
// steps from the same start only if phi and divu roll back with the state.
TEST(MaestroGuard, RetryReplaysFromTheRolledBackProjection) {
    fault::disarmAll();
    GuardedBubble guarded(quietGuard());
    StepGuardOptions off;
    off.enabled = false;
    GuardedBubble twin(off);
    const Real dt = 1.0e-8;
    {
        fault::ScopedFault f(fault::Site::BurnZoneFailure); // first burn fails
        guarded.m->step(dt);
    }
    ASSERT_EQ(guarded.m->retryStats().retries, 1);
    ASSERT_EQ(guarded.m->retryStats().last_subcycles, 2);
    twin.m->step(0.5 * dt);
    twin.m->step(0.5 * dt);

    EXPECT_EQ(countDiffs(guarded.m->state(), twin.m->state()), 0);
    EXPECT_EQ(countDiffs(guarded.m->phi(), twin.m->phi()), 0);
    EXPECT_EQ(countDiffs(guarded.m->divu(), twin.m->divu()), 0);
}

TEST(MaestroGuard, ExhaustedRetriesHardErrorThrows) {
    fault::disarmAll();
    StepGuardOptions guard = quietGuard();
    guard.max_retries = 1;
    GuardedBubble gb(guard);

    fault::Spec forever;
    forever.count = 0;
    fault::ScopedFault f(fault::Site::BurnZoneFailure, forever);
    EXPECT_THROW(gb.m->step(1.0e-8), StepRetryError);
    EXPECT_EQ(gb.m->retryStats().degraded, 1);
}

TEST(MaestroGuard, ExhaustedRetriesClampAndWarnContinues) {
    fault::disarmAll();
    StepGuardOptions guard = quietGuard();
    guard.max_retries = 1;
    guard.policy = RetryPolicy::ClampAndWarn;
    GuardedBubble gb(guard);

    fault::Spec forever;
    forever.count = 0;
    fault::ScopedFault f(fault::Site::BurnZoneFailure, forever);
    EXPECT_NO_THROW(gb.m->step(1.0e-8));
    EXPECT_EQ(gb.m->retryStats().degraded, 1);
    EXPECT_EQ(gb.m->stepCount(), 1);
    // The degraded state is still usable: finite with positive T.
    EXPECT_TRUE(stateIsFinite(gb.m->state()));
    EXPECT_GT(gb.m->state().min(MaestroLayout::QT), 0.0);
}

TEST(MaestroGuard, GuardDisabledBehavesAsBefore) {
    fault::disarmAll();
    StepGuardOptions off;
    off.enabled = false;
    GuardedBubble gb(off);
    gb.m->step(1.0e-8);
    EXPECT_EQ(gb.m->retryStats().steps_guarded, 0);
    EXPECT_EQ(gb.m->stepCount(), 1);
}
