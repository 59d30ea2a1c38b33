#include "castro/sedov.hpp"
#include "castro/validate.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "mesh/step_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <new>
#include <utility>
#include <vector>

using namespace exa;
using namespace exa::castro;

namespace {

MultiFab makeMf(int n, int nc, int ng) {
    BoxArray ba(Box({0, 0, 0}, {n - 1, n - 1, n - 1}));
    ba.maxSize(std::max(n / 2, 4));
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, nc, ng);
    mf.setVal(1.0);
    return mf;
}

StepGuardOptions quietGuard() {
    StepGuardOptions g;
    g.enabled = true;
    g.verbose = false;
    return g;
}

// A hot, dense, motionless carbon box: every zone is burn-eligible, so the
// burn-zone fault site gets hit on the very first zone of the first
// half-burn.
struct ReactingBox {
    ReactionNetwork net = makeIgnitionSimple();
    Eos eos{HelmLiteEos{}};
    std::unique_ptr<Castro> c;

    explicit ReactingBox(const StepGuardOptions& guard) {
        Box dom({0, 0, 0}, {7, 7, 7});
        Geometry geom(dom, {0, 0, 0}, {1.0e7, 1.0e7, 1.0e7});
        AmrInfo info;
        info.max_grid_size = 8;
        CastroOptions opt;
        opt.do_react = true;
        opt.guard = guard;
        c = std::make_unique<Castro>(geom, info, net, eos, opt, [](Real, Real, Real) {
            Castro::InitialZone z;
            z.rho = 2.6e9;
            z.T = 6.0e8;
            z.X = {1.0, 0.0};
            return z;
        });
        c->init();
    }
};

} // namespace

// ---------------------------------------------------------------- engine

TEST(StepGuard, CleanStepTakesOneAttempt) {
    StepGuard g(quietGuard());
    MultiFab mf = makeMf(8, 2, 1);
    int advances = 0;
    const auto out = g.advance(
        1.0, [&](StateSnapshot& s) { s.capture(mf); },
        [&](const StateSnapshot& s) { s.restoreTo(0, mf); },
        [&](Real, int) { ++advances; }, [] { return ValidationReport{}; },
        [](const StateSnapshot&, bool) { FAIL() << "degrade on a clean step"; });
    EXPECT_EQ(out, StepGuard::Outcome::Clean);
    EXPECT_EQ(advances, 1);
    EXPECT_EQ(g.stats().steps_guarded, 1);
    EXPECT_EQ(g.stats().retries, 0);
    EXPECT_EQ(g.stats().last_attempts, 1);
    EXPECT_EQ(g.stats().last_subcycles, 1);
    EXPECT_GT(g.stats().snapshot_bytes, 0);
}

TEST(StepGuard, RetryBacksOffGeometricallyAndRestores) {
    StepGuard g(quietGuard());
    MultiFab mf = makeMf(8, 1, 0);
    int attempts = 0;
    std::vector<std::pair<Real, int>> calls;
    const auto out = g.advance(
        1.0, [&](StateSnapshot& s) { s.capture(mf); },
        [&](const StateSnapshot& s) { s.restoreTo(0, mf); },
        [&](Real sub_dt, int nsub) {
            calls.push_back({sub_dt, nsub});
            mf.plus(1.0, 0, 1); // visible mutation: must be rolled back
            ++attempts;
        },
        [&] {
            ValidationReport r;
            if (attempts < 3) r.add("synthetic", "forced failure");
            return r;
        },
        [](const StateSnapshot&, bool) { FAIL() << "degrade despite success"; });
    EXPECT_EQ(out, StepGuard::Outcome::Retried);
    // Attempts ran as 1, 2, 4 substeps of dt, dt/2, dt/4.
    ASSERT_EQ(calls.size(), 3u);
    EXPECT_DOUBLE_EQ(calls[0].first, 1.0);
    EXPECT_EQ(calls[0].second, 1);
    EXPECT_DOUBLE_EQ(calls[1].first, 0.5);
    EXPECT_EQ(calls[1].second, 2);
    EXPECT_DOUBLE_EQ(calls[2].first, 0.25);
    EXPECT_EQ(calls[2].second, 4);
    EXPECT_EQ(g.stats().retries, 2);
    EXPECT_EQ(g.stats().last_attempts, 3);
    EXPECT_EQ(g.stats().last_subcycles, 4);
    // Each retry restored the snapshot first: exactly one surviving +1.
    EXPECT_DOUBLE_EQ(mf.const_array(0)(0, 0, 0, 0), 2.0);
}

TEST(StepGuard, AdvanceExceptionIsAFailedAttemptNotACrash) {
    StepGuard g(quietGuard());
    MultiFab mf = makeMf(8, 1, 0);
    int attempts = 0;
    const auto out = g.advance(
        1.0, [&](StateSnapshot& s) { s.capture(mf); },
        [&](const StateSnapshot& s) { s.restoreTo(0, mf); },
        [&](Real, int) {
            if (++attempts == 1) throw std::bad_alloc{};
        },
        [] { return ValidationReport{}; },
        [](const StateSnapshot&, bool) { FAIL(); });
    EXPECT_EQ(out, StepGuard::Outcome::Retried);
    EXPECT_EQ(attempts, 2);
    EXPECT_NE(g.stats().last_failure.find("advance threw"), std::string::npos);
}

TEST(StepGuard, ExhaustionUnderHardErrorThrows) {
    StepGuardOptions opt = quietGuard();
    opt.max_retries = 2;
    StepGuard g(opt);
    MultiFab mf = makeMf(8, 1, 0);
    EXPECT_THROW(
        g.advance(
            1.0, [&](StateSnapshot& s) { s.capture(mf); },
            [&](const StateSnapshot& s) { s.restoreTo(0, mf); }, [](Real, int) {},
            [] {
                ValidationReport r;
                r.add("synthetic", "always fails");
                return r;
            },
            [](const StateSnapshot&, bool) { FAIL() << "no degrade under HardError"; }),
        StepRetryError);
    EXPECT_EQ(g.stats().degraded, 1);
    EXPECT_EQ(g.stats().retries, 2);
}

TEST(StepGuard, ExhaustionUnderClampAndWarnDegrades) {
    StepGuardOptions opt = quietGuard();
    opt.max_retries = 1;
    opt.policy = RetryPolicy::ClampAndWarn;
    StepGuard g(opt);
    MultiFab mf = makeMf(8, 1, 0);
    bool degraded = false;
    const auto out = g.advance(
        1.0, [&](StateSnapshot& s) { s.capture(mf); },
        [&](const StateSnapshot& s) { s.restoreTo(0, mf); }, [](Real, int) {},
        [] {
            ValidationReport r;
            r.add("synthetic", "always fails");
            return r;
        },
        [&](const StateSnapshot& snap, bool threw) {
            degraded = true;
            EXPECT_FALSE(threw);
            EXPECT_EQ(snap.count(), 1u);
        });
    EXPECT_EQ(out, StepGuard::Outcome::Degraded);
    EXPECT_TRUE(degraded);
    EXPECT_EQ(g.stats().degraded, 1);
}

TEST(StepGuard, SnapshotRoundTripsValidAndGhostZones) {
    MultiFab mf = makeMf(8, 2, 2);
    mf.setVal(3.5); // including ghosts
    StateSnapshot snap;
    snap.capture(mf);
    mf.setVal(-1.0);
    snap.restoreTo(0, mf);
    const Box gbox = grow(mf.box(0), 2);
    auto a = mf.const_array(0);
    EXPECT_DOUBLE_EQ(a(gbox.smallEnd(0), gbox.smallEnd(1), gbox.smallEnd(2), 1), 3.5);
    EXPECT_DOUBLE_EQ(a(0, 0, 0, 0), 3.5);
}

TEST(StepGuard, RestoreRejectsChangedLayout) {
    MultiFab mf = makeMf(8, 1, 0);
    StateSnapshot snap;
    snap.capture(mf);
    MultiFab other = makeMf(16, 1, 0); // a "regrid" happened
    EXPECT_THROW(snap.restoreTo(0, other), StepRetryError);
}

// ------------------------------------------------------------- validator

TEST(CastroValidate, FlagsEachFailureMode) {
    const int nspec = 2;
    StateLayout layout(nspec);
    MultiFab mf = makeMf(8, layout.ncomp(), 0);
    mf.setVal(0.0);
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.array(static_cast<int>(f));
        const Box& vb = mf.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    a(i, j, k, StateLayout::URHO) = 1.0;
                    a(i, j, k, StateLayout::UEDEN) = 1.0;
                    a(i, j, k, StateLayout::UFS) = 0.4;
                    a(i, j, k, StateLayout::UFS + 1) = 0.6;
                }
    }
    StepGuardOptions opt = quietGuard();
    EXPECT_TRUE(validateState(mf, nspec, opt).ok());

    {
        auto a = mf.array(0);
        a(1, 2, 3, StateLayout::UEDEN) = std::nan("");
        auto rep = validateState(mf, nspec, opt);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.issues[0].check, "non-finite");
        EXPECT_NE(rep.issues[0].detail.find("(1,2,3)"), std::string::npos);
        a(1, 2, 3, StateLayout::UEDEN) = 1.0;
    }
    {
        auto a = mf.array(0);
        a(0, 0, 0, StateLayout::URHO) = -2.0;
        auto rep = validateState(mf, nspec, opt);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.issues[0].check, "negative-density");
        a(0, 0, 0, StateLayout::URHO) = 1.0;
    }
    {
        auto a = mf.array(0);
        a(2, 2, 2, StateLayout::UFS) = 0.9; // sum X = 1.5
        auto rep = validateState(mf, nspec, opt);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.issues[0].check, "species-sum-drift");
        a(2, 2, 2, StateLayout::UFS) = 0.4;
    }
    {
        BurnGridStats burn;
        burn.zones = 100;
        burn.failures = 3;
        burn.first_failure = {true, 4, 5, 6, 0, -1, 2.6e9, 7.0e8};
        auto rep = validateState(mf, nspec, opt, &burn);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.issues[0].check, "burn-failures");
        EXPECT_NE(rep.issues[0].detail.find("(4,5,6)"), std::string::npos);
        // A tolerant threshold accepts the same stats.
        StepGuardOptions loose = opt;
        loose.burn_failure_tol = 0.05;
        EXPECT_TRUE(validateState(mf, nspec, loose, &burn).ok());
    }
}

// ------------------------------------------------- driver integration

TEST(StepGuardCastro, InjectedBurnFailureRetriesAndConverges) {
    fault::disarmAll();
    StepGuardOptions guard = quietGuard();
    ReactingBox box(guard);
    const Real dt = 1.0e-6;

    fault::Spec once; // default: first hit only
    fault::ScopedFault f(fault::Site::BurnZoneFailure, once);
    const BurnGridStats burn = box.c->step(dt);

    // The failure fired, forced a rollback, and the re-advance burned
    // every zone cleanly.
    EXPECT_EQ(fault::stats(fault::Site::BurnZoneFailure).fires, 1);
    EXPECT_GE(box.c->retryStats().retries, 1);
    EXPECT_EQ(burn.failures, 0);
    EXPECT_DOUBLE_EQ(box.c->time(), dt);
    EXPECT_EQ(box.c->stepCount(), 1); // one guarded step = one step
    EXPECT_TRUE(validateState(box.c->state(), 2, guard).ok());
}

TEST(StepGuardCastro, ExhaustedRetriesHardErrorThrows) {
    fault::disarmAll();
    StepGuardOptions guard = quietGuard();
    guard.max_retries = 2;
    ReactingBox box(guard);

    fault::Spec forever;
    forever.count = 0; // every burn of every attempt fails
    fault::ScopedFault f(fault::Site::BurnZoneFailure, forever);
    EXPECT_THROW(box.c->step(1.0e-6), StepRetryError);
    EXPECT_EQ(box.c->retryStats().degraded, 1);
    EXPECT_EQ(box.c->retryStats().retries, 2);
}

TEST(StepGuardCastro, ExhaustedRetriesClampAndWarnContinues) {
    fault::disarmAll();
    StepGuardOptions guard = quietGuard();
    guard.max_retries = 1;
    guard.policy = RetryPolicy::ClampAndWarn;
    ReactingBox box(guard);

    fault::Spec forever;
    forever.count = 0;
    fault::ScopedFault f(fault::Site::BurnZoneFailure, forever);
    EXPECT_NO_THROW(box.c->step(1.0e-6));
    EXPECT_EQ(box.c->retryStats().degraded, 1);
    EXPECT_EQ(box.c->stepCount(), 1);
    // The degraded state is still physically admissible.
    StepGuardOptions check = quietGuard();
    check.burn_failure_tol = 1.0; // burn failures tolerated, state must be sane
    EXPECT_TRUE(validateState(box.c->state(), 2, check).ok());
}

TEST(StepGuardCastro, InjectedNanFluxIsCaughtAcrossBackends) {
    for (Backend be : {Backend::Serial, Backend::OpenMP, Backend::SimGpu}) {
        SCOPED_TRACE(static_cast<int>(be));
        ScopedBackend sb(be);
        fault::disarmAll();
        auto net = makeIgnitionSimple();
        SedovParams p;
        p.ncell = 16;
        p.max_grid_size = 8;
        p.guard = quietGuard();
        auto c = p.build(net);
        c->step(c->estimateDt());
        {
            fault::ScopedFault f(fault::Site::HydroNanFlux); // fires once
            c->step(c->estimateDt());
        }
        EXPECT_GE(c->retryStats().retries, 1);
        EXPECT_TRUE(validateState(c->state(), net.nspec(), p.guard).ok());
    }
}

TEST(StepGuardCastro, InjectedHaloCorruptionIsCaughtAndRetried) {
    fault::disarmAll();
    auto net = makeIgnitionSimple();
    SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8; // several fabs -> FillBoundary moves real payloads
    p.guard = quietGuard();
    auto c = p.build(net);
    c->step(c->estimateDt());
    {
        fault::ScopedFault f(fault::Site::HaloPayloadCorrupt);
        c->step(c->estimateDt());
    }
    EXPECT_EQ(fault::stats(fault::Site::HaloPayloadCorrupt).fires, 1);
    EXPECT_GE(c->retryStats().retries, 1);
    EXPECT_TRUE(validateState(c->state(), net.nspec(), p.guard).ok());
}

TEST(StepGuardCastro, InjectedAllocationFailureIsRecoverable) {
    fault::disarmAll();
    auto net = makeIgnitionSimple();
    SedovParams p;
    p.ncell = 8;
    p.max_grid_size = 8; // one fab: the snapshot is exactly one allocation
    p.guard = quietGuard();
    auto c = p.build(net);
    const Real dt = c->estimateDt();
    {
        // Skip the snapshot clone (alloc 0) and the two step temporaries,
        // then kill one allocation inside the hydro advance itself.
        fault::Spec spec;
        spec.start = 3;
        fault::ScopedFault f(fault::Site::ArenaAllocFailure, spec);
        c->step(dt);
    }
    EXPECT_GE(c->retryStats().retries, 1);
    EXPECT_NE(c->retryStats().last_failure.find("advance threw"),
              std::string::npos);
    EXPECT_TRUE(validateState(c->state(), net.nspec(), p.guard).ok());
}

// End-to-end faulted-run scenarios (conservation under mid-run faults,
// checkpoint corruption on restart) live in tests/fault/, under the
// `fault-injection` ctest label.
