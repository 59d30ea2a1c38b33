// End-to-end fault-injection scenarios (ctest label: fault-injection).
//
// These drive whole runs — Sedov blasts, reacting bubbles, checkpoint
// round trips — with deterministic faults armed mid-flight, and assert
// the acceptance criteria of the robustness layer: a faulted guarded run
// completes with the same conservation invariants as the unfaulted run,
// and a corrupted checkpoint is rejected on restart naming the bad fab.

#include "castro/sedov.hpp"
#include "castro/validate.hpp"
#include "core/fault.hpp"
#include "maestro/maestro.hpp"
#include "mesh/plotfile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace exa;

namespace {

StepGuardOptions quietGuard() {
    StepGuardOptions g;
    g.enabled = true;
    return g;
}

struct TmpDir {
    std::string path;
    // Per process: ctest runs a test's plain, debug-backend and
    // determinism entries concurrently.
    explicit TmpDir(const std::string& name)
        : path("/tmp/exastro_fault_" + std::to_string(getpid()) + "_" + name) {
        std::filesystem::remove_all(path);
    }
    ~TmpDir() { std::filesystem::remove_all(path); }
};

struct FaultInjection : ::testing::Test {
    void SetUp() override { fault::disarmAll(); }
    void TearDown() override { fault::disarmAll(); }
};

} // namespace

TEST_F(FaultInjection, SedovWithMidRunNanFluxKeepsCleanRunInvariants) {
    auto net = makeIgnitionSimple();

    // Run the same blast to t = 0.02 twice; the second copy takes a NaN
    // hydro flux at step 3 and must recover through the guard.
    auto run = [&](bool faulted) {
        castro::SedovParams p;
        p.ncell = 16;
        p.max_grid_size = 8;
        p.guard = quietGuard();
        auto c = p.build(net);
        const Real m0 = c->totalMass();
        const Real e0 = c->totalEnergy();
        int step = 0;
        while (c->time() < 0.02) {
            const Real dt = std::min(c->estimateDt(), 0.02 - c->time());
            if (faulted && step == 3) {
                fault::ScopedFault f(fault::Site::HydroNanFlux);
                c->step(dt);
            } else {
                c->step(dt);
            }
            ++step;
        }
        EXPECT_TRUE(
            castro::validateState(c->state(), net.nspec(), p.guard).ok());
        return std::array<Real, 3>{c->totalMass() / m0, c->totalEnergy() / e0,
                                   static_cast<Real>(c->retryStats().retries)};
    };

    const auto clean = run(false);
    const auto faulted = run(true);
    EXPECT_EQ(clean[2], 0.0);
    EXPECT_GE(faulted[2], 1.0);
    // Mass and energy obey the same conservation invariants in both runs:
    // drift at roundoff level while the shock is inside the domain.
    EXPECT_NEAR(clean[0], 1.0, 1e-10);
    EXPECT_NEAR(faulted[0], 1.0, 1e-10);
    EXPECT_NEAR(clean[1], 1.0, 1e-6);
    EXPECT_NEAR(faulted[1], 1.0, 1e-6);
}

TEST_F(FaultInjection, ReactingBubbleWithMidRunBurnFailureCompletes) {
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.do_react = true;
    p.T_bubble = 1.0e9;
    p.guard = quietGuard();
    auto m = p.build(net);

    const Real dt = 1.0e-8;
    BurnGridStats last;
    for (int s = 0; s < 4; ++s) {
        if (s == 2) {
            fault::ScopedFault f(fault::Site::BurnZoneFailure);
            last = m->step(dt);
            EXPECT_EQ(fault::stats(fault::Site::BurnZoneFailure).fires, 1);
        } else {
            last = m->step(dt);
        }
    }
    EXPECT_GE(m->retryStats().retries, 1);
    EXPECT_EQ(m->stepCount(), 4);
    EXPECT_DOUBLE_EQ(m->time(), 4 * dt);
    EXPECT_EQ(last.failures, 0);

    // Species conservation invariant: every zone's mass fractions still
    // sum to one after the faulted, retried burn.
    const auto& s = m->state();
    Real worst = 0.0;
    for (std::size_t b = 0; b < s.size(); ++b) {
        auto q = s.const_array(static_cast<int>(b));
        const Box& vb = s.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real xsum = 0.0;
                    for (int n = 0; n < net.nspec(); ++n)
                        xsum += q(i, j, k, maestro::MaestroLayout::QFS + n);
                    worst = std::max(worst, std::abs(xsum - 1.0));
                }
    }
    EXPECT_LT(worst, 1.0e-8);
    EXPECT_GT(s.min(maestro::MaestroLayout::QT), 0.0);
}

TEST_F(FaultInjection, CheckpointCorruptedOnDiskIsRejectedOnRestart) {
    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    auto c = p.build(net);
    for (int s = 0; s < 2; ++s) c->step(c->estimateDt());

    TmpDir dir("checkpoint");
    const std::vector<std::string> names(
        static_cast<std::size_t>(c->state().nComp()), "u");

    // A clean checkpoint round-trips exactly.
    writePlotfile(dir.path, c->state(), c->geom(), names, c->time(), 2);
    {
        castro::SedovParams q = p;
        auto fresh = q.build(net);
        readPlotfileLevel(dir.path, 0, fresh->state());
        EXPECT_DOUBLE_EQ(fresh->totalMass(), c->totalMass());
        EXPECT_DOUBLE_EQ(fresh->totalEnergy(), c->totalEnergy());
    }

    // The same checkpoint written through a bit-flipping disk is detected
    // at restart, naming the corrupted fab.
    {
        fault::ScopedFault f(fault::Site::CheckpointBitFlip);
        writePlotfile(dir.path, c->state(), c->geom(), names, c->time(), 2);
    }
    auto fresh = p.build(net);
    try {
        readPlotfileLevel(dir.path, 0, fresh->state());
        FAIL() << "corrupted checkpoint was accepted";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("fab 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("corrupted payload"), std::string::npos) << msg;
    }
}

TEST_F(FaultInjection, EnvStyleConfigDrivesAGuardedRun) {
    // The EXA_FAULTS string format, applied end-to-end: arm a one-shot
    // NaN flux and a one-shot halo corruption, then run a guarded blast.
    std::string err;
    ASSERT_TRUE(fault::configureFromString(
        "hydro-nan-flux:start=0,count=1;halo-payload-corrupt:start=150,count=1",
        &err))
        << err;

    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.guard = quietGuard();
    auto c = p.build(net);
    for (int s = 0; s < 4; ++s) c->step(c->estimateDt());

    EXPECT_EQ(fault::stats(fault::Site::HydroNanFlux).fires, 1);
    EXPECT_EQ(fault::stats(fault::Site::HaloPayloadCorrupt).fires, 1);
    EXPECT_GE(c->retryStats().retries, 1);
    EXPECT_TRUE(castro::validateState(c->state(), net.nspec(), p.guard).ok());
}

TEST_F(FaultInjection, AllocationFaultMidRunIsRecoverable) {
    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.guard = quietGuard();
    auto c = p.build(net);
    c->step(c->estimateDt());
    const Real dt = c->estimateDt();
    {
        // Hit 0 is the snapshot clone; land the failure a few allocations
        // later, inside the hydro advance.
        fault::Spec spec;
        spec.start = 3;
        fault::ScopedFault f(fault::Site::ArenaAllocFailure, spec);
        c->step(dt);
    }
    EXPECT_GE(c->retryStats().retries, 1);
    EXPECT_EQ(c->stepCount(), 2);
    EXPECT_TRUE(castro::validateState(c->state(), net.nspec(), p.guard).ok());
}
