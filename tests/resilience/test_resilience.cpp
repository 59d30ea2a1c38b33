// The resilience subsystem (ctest label: resilience): Daly-scheduled
// asynchronous double-buffered checkpointing, rank-failure emulation with
// shrink recovery, per-fab localized restore with full-rollback fallback,
// the fault-campaign harness, and the CommLedger resilience counters.
//
// The load-bearing assertions are bit-identity ones: a supervised run
// that loses a rank mid-flight must finish with exactly the bytes of an
// uninterrupted run — restore + deterministic replay, not approximate
// recovery — for single-level Castro (Sedov, and Poisson self-gravity),
// subcycled AMR Castro (across a regrid, exercising the remake-on-restore
// path), Maestro (whose multigrid warm start phi is part of the
// trajectory), and the WD-collision acceptance problem, on every backend.

#include "castro/castro.hpp"
#include "castro/sedov.hpp"
#include "castro/wd_collision.hpp"
#include "comm/ledger.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "maestro/maestro.hpp"
#include "mesh/plotfile.hpp"
#include "resilience/campaign.hpp"
#include "resilience/checkpointer.hpp"
#include "resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace exa;
using namespace exa::resilience;

namespace {

struct TmpDir {
    std::string path;
    // Per process: ctest runs a test's plain, debug-backend and
    // determinism entries concurrently.
    explicit TmpDir(const std::string& name)
        : path("/tmp/exastro_resilience_" + std::to_string(getpid()) + "_" + name) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TmpDir() { std::filesystem::remove_all(path); }
};

struct ResilienceTest : ::testing::Test {
    void SetUp() override { fault::disarmAll(); }
    void TearDown() override { fault::disarmAll(); }
};

StepGuardOptions quietGuard() {
    StepGuardOptions g;
    g.enabled = true;
    return g;
}

// Bit-identity between the valid regions of two same-layout MultiFabs:
// staged buffers are the exact bytes, so memcmp is the comparison (== on
// doubles would excuse nothing, but also reject legitimate NaN equality).
::testing::AssertionResult bitIdentical(const MultiFab& a, const MultiFab& b,
                                        const Geometry& g) {
    const StagedLevel sa = stageLevel(a, g);
    const StagedLevel sb = stageLevel(b, g);
    if (sa.fabs.size() != sb.fabs.size()) {
        return ::testing::AssertionFailure() << "fab count differs";
    }
    for (std::size_t f = 0; f < sa.fabs.size(); ++f) {
        if (sa.fabs[f].data.size() != sb.fabs[f].data.size()) {
            return ::testing::AssertionFailure()
                   << "fab " << f << " size differs";
        }
        if (std::memcmp(sa.fabs[f].data.data(), sb.fabs[f].data.data(),
                        sa.fabs[f].data.size() * sizeof(Real)) != 0) {
            return ::testing::AssertionFailure()
                   << "fab " << f << " bytes differ";
        }
    }
    return ::testing::AssertionSuccess();
}

std::unique_ptr<castro::Castro> makeBlast(int nranks = 4) {
    static ReactionNetwork net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = nranks;
    p.guard = quietGuard();
    return p.build(net);
}

// A small MultiFab with a deterministic per-zone fingerprint.
MultiFab makeFingerprint(const Geometry& geom, int nranks, int ncomp = 2) {
    BoxArray ba(geom.domain());
    ba.maxSize(8);
    DistributionMapping dm(ba, nranks);
    MultiFab mf(ba, dm, ncomp, 0);
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.array(static_cast<int>(f));
        ParallelFor(mf.box(static_cast<int>(f)), ncomp,
                    [=](int i, int j, int k, int n) {
                        a(i, j, k, n) = std::sin(0.7 * i + 1.3 * j) +
                                        0.01 * k + 100.0 * n;
                    });
    }
    return mf;
}

} // namespace

// ---------------------------------------------------------------------
// Daly scheduling
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, DalyIntervalMatchesFirstOrderOptimum) {
    // delta = 0.02 s staged per checkpoint, tau = 0.01 s per step -> 2
    // steps of cost; MTBF 100 steps -> sqrt(2 * 2 * 100) = 20 steps.
    EXPECT_EQ(dalyIntervalSteps(0.02, 0.01, 100.0, 1, 64), 20);
    // Clamping at both ends.
    EXPECT_EQ(dalyIntervalSteps(10.0, 0.01, 1.0e6, 1, 64), 64);
    EXPECT_EQ(dalyIntervalSteps(1.0e-9, 0.01, 4.0, 2, 64), 2);
    // Degenerate inputs fall back to the maximum interval.
    EXPECT_EQ(dalyIntervalSteps(0.02, 0.0, 100.0, 1, 64), 64);
    EXPECT_EQ(dalyIntervalSteps(0.02, 0.01, 0.0, 1, 64), 64);
}

TEST_F(ResilienceTest, DalyIntervalTracksArmedFaultRate) {
    // MTBF implied by an armed rank-failure probability: 1/p steps.
    fault::Spec s;
    s.probability = 0.01; // MTBF 100 steps
    fault::arm(fault::Site::RankFailure, s);

    TmpDir tmp("daly");
    CheckpointerOptions opt;
    opt.dir = tmp.path;
    opt.async = false;
    AsyncCheckpointer ckpt(opt);
    for (int i = 0; i < 20; ++i) ckpt.noteStepSeconds(0.01);
    // Staging EMA is still unmeasured -> eager minimum interval (1 step).
    EXPECT_EQ(ckpt.intervalSteps(), 1);
}

// ---------------------------------------------------------------------
// Checkpointer: staging round trip, slot alternation, async drain
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, StagedPlotfileRoundTripsPerFab) {
    Box dom({0, 0, 0}, {15, 15, 15});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    MultiFab mf = makeFingerprint(geom, 2);

    TmpDir tmp("roundtrip");
    const std::string dir = tmp.path + "/pf";
    const StagedLevel staged = stageLevel(mf, geom);
    ASSERT_GT(staged.fabs.size(), 1u);
    const std::int64_t bytes = writeStagedPlotfile(
        dir, {staged}, {"a", "b"}, 0.5, 7);
    EXPECT_GT(bytes, 0);

    // Per-fab localized reads reproduce the staged payloads exactly.
    const PlotfileHeader h = readPlotfileHeader(dir);
    EXPECT_EQ(h.step, 7);
    for (std::size_t f = 0; f < staged.fabs.size(); ++f) {
        const StagedFab sf = readPlotfileFab(dir, h, 0, static_cast<int>(f));
        ASSERT_EQ(sf.data.size(), staged.fabs[f].data.size());
        EXPECT_EQ(std::memcmp(sf.data.data(), staged.fabs[f].data.data(),
                              sf.data.size() * sizeof(Real)),
                  0);
    }

    // applyStagedFab restores a zeroed copy bit-identically.
    MultiFab zero(mf.boxArray(), mf.distributionMap(), mf.nComp(), 0);
    zero.setVal(0.0);
    for (std::size_t f = 0; f < staged.fabs.size(); ++f) {
        applyStagedFab(zero, static_cast<int>(f), staged.fabs[f]);
    }
    EXPECT_TRUE(bitIdentical(zero, mf, geom));
}

TEST_F(ResilienceTest, CheckpointerAlternatesSlotsAndRetainsSnapshot) {
    Box dom({0, 0, 0}, {15, 15, 15});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    MultiFab mf = makeFingerprint(geom, 2);

    TmpDir tmp("slots");
    CheckpointerOptions opt;
    opt.dir = tmp.path;
    opt.async = false;
    AsyncCheckpointer ckpt(opt);

    CheckpointField f;
    f.mf = &mf;
    f.geom = geom;
    f.name = "state";

    ASSERT_TRUE(ckpt.checkpoint({f}, 0.1, 1));
    auto s1 = ckpt.latest();
    ASSERT_TRUE(s1 && s1->valid());
    EXPECT_EQ(s1->dir, tmp.path + "/chk_A");

    mf.setVal(3.25);
    ASSERT_TRUE(ckpt.checkpoint({f}, 0.2, 2));
    auto s2 = ckpt.latest();
    ASSERT_TRUE(s2 && s2->valid());
    EXPECT_EQ(s2->dir, tmp.path + "/chk_B");
    EXPECT_EQ(s2->step, 2);
    EXPECT_EQ(ckpt.checkpointsWritten(), 2);

    // Both slots live on disk simultaneously, each internally consistent.
    EXPECT_TRUE(verifyPlotfile(tmp.path + "/chk_A/state").empty());
    EXPECT_TRUE(verifyPlotfile(tmp.path + "/chk_B/state").empty());

    // The retained in-memory snapshot holds the staged bytes of its era:
    // s1 predates the setVal, s2 is all 3.25.
    EXPECT_NE(s1->fields[0].level.fabs[0].data[0], 3.25);
    EXPECT_EQ(s2->fields[0].level.fabs[0].data[0], 3.25);
    // Staging-time owners recorded per fab.
    EXPECT_EQ(s2->fields[0].owner.size(), mf.size());
}

TEST_F(ResilienceTest, AsyncDrainCommitsInBackground) {
    Box dom({0, 0, 0}, {15, 15, 15});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    MultiFab mf = makeFingerprint(geom, 2);

    TmpDir tmp("async");
    CheckpointerOptions opt;
    opt.dir = tmp.path;
    opt.async = true;
    AsyncCheckpointer ckpt(opt);

    CheckpointField f;
    f.mf = &mf;
    f.geom = geom;
    f.name = "state";
    ASSERT_TRUE(ckpt.checkpoint({f}, 0.1, 1));
    // The step loop may keep mutating the live state while the drain
    // thread writes the staged copy.
    mf.setVal(-1.0);
    ckpt.flush();
    auto snap = ckpt.latest();
    ASSERT_TRUE(snap && snap->valid());
    EXPECT_TRUE(ckpt.lastError().empty()) << ckpt.lastError();
    EXPECT_EQ(ckpt.checkpointsWritten(), 1);
    EXPECT_TRUE(verifyPlotfile(snap->dir + "/state").empty());
    EXPECT_GT(ckpt.lastStagingSeconds(), 0.0);
    // The committed bytes are the pre-mutation fingerprint.
    const PlotfileHeader h = readPlotfileHeader(snap->dir + "/state");
    const StagedFab sf = readPlotfileFab(snap->dir + "/state", h, 0, 0);
    EXPECT_NE(sf.data[0], -1.0);
}

// ---------------------------------------------------------------------
// Restart hardening: complete damage reports
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, VerifyPlotfileReportsEveryDamagedFab) {
    Box dom({0, 0, 0}, {15, 15, 15});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    MultiFab mf = makeFingerprint(geom, 2);

    TmpDir tmp("damage");
    const std::string dir = tmp.path + "/pf";
    {
        // Flip one bit in the payloads of the first two fabs written.
        fault::Spec s;
        s.start = 0;
        s.count = 2;
        fault::ScopedFault bitflip(fault::Site::CheckpointBitFlip, s);
        writePlotfile(dir, mf, geom, {"a", "b"}, 0.0, 0);
    }

    const std::vector<FabIssue> issues = verifyPlotfile(dir);
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_EQ(issues[0].fab, 0);
    EXPECT_EQ(issues[1].fab, 1);
    EXPECT_NE(issues[0].what.find("corrupted payload"), std::string::npos);

    // readPlotfileLevel names *every* damaged fab in one throw and leaves
    // the destination untouched.
    MultiFab dst(mf.boxArray(), mf.distributionMap(), mf.nComp(), 0);
    dst.setVal(42.0);
    try {
        readPlotfileLevel(dir, 0, dst);
        FAIL() << "corrupted plotfile was accepted";
    } catch (const std::exception& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 damaged fab(s)"), std::string::npos) << what;
        EXPECT_NE(what.find("fab 0"), std::string::npos) << what;
        EXPECT_NE(what.find("fab 1"), std::string::npos) << what;
    }
    auto a = dst.const_array(0);
    EXPECT_EQ(a(0, 0, 0, 0), 42.0);
}

// ---------------------------------------------------------------------
// comm-message-drop semantics
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, CommMessageDropSkipsOffRankDeliveryOnly) {
    Box dom({0, 0, 0}, {15, 15, 15});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    BoxArray ba(dom);
    ba.maxSize(8);
    const int nranks = 2;
    DistributionMapping src_dm(ba, nranks);
    // Destination mapping with every fab on the *other* rank, so every
    // copy-plan item is an off-rank message.
    std::vector<int> flipped(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) flipped[i] = 1 - src_dm[i];
    DistributionMapping dst_dm(std::move(flipped), nranks);

    MultiFab src(ba, src_dm, 1, 0);
    src.setVal(7.0);
    MultiFab dst(ba, dst_dm, 1, 0);

    {
        fault::Spec s;
        s.count = 0; // unbounded: drop every message in the window
        fault::ScopedFault drop(fault::Site::CommMessageDrop, s);
        dst.setVal(0.0);
        dst.ParallelCopy(src);
        auto a = dst.const_array(0);
        EXPECT_EQ(a(0, 0, 0, 0), 0.0) << "dropped message was delivered";
    }
    // Disarmed: the same copy delivers.
    dst.setVal(0.0);
    dst.ParallelCopy(src);
    auto a = dst.const_array(0);
    EXPECT_EQ(a(0, 0, 0, 0), 7.0);
}

// ---------------------------------------------------------------------
// Supervised recovery: bit-identity across drivers and backends
// ---------------------------------------------------------------------

namespace {

SupervisorOptions sedovSupervisor(const std::string& dir, int nranks) {
    SupervisorOptions opt;
    opt.checkpoint.dir = dir;
    opt.checkpoint.interval_hint = 3;
    opt.nranks = nranks;
    return opt;
}

} // namespace

TEST_F(ResilienceTest, SedovRankFailureRecoversBitIdentically) {
    const int nsteps = 8;
    auto baseline = makeBlast();
    for (int i = 0; i < nsteps; ++i) baseline->step(baseline->estimateDt());

    TmpDir tmp("sedov");
    auto survivor = makeBlast();
    ResilienceSupervisor sup(*survivor, sedovSupervisor(tmp.path, 4));
    {
        // Heartbeat hit 4 = after the 5th step.
        fault::Spec s;
        s.start = 4;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }

    const SupervisorReport& r = sup.report();
    EXPECT_EQ(r.ranks_failed, 1);
    EXPECT_EQ(r.ranks_recovered, 1);
    EXPECT_GT(r.replay_steps, 0);
    EXPECT_EQ(r.localized_restores, 1);
    EXPECT_EQ(r.full_rollbacks, 0);
    EXPECT_GT(r.checkpoints_written, 0);
    EXPECT_EQ(sup.ranksAlive(), 3);
    EXPECT_EQ(survivor->stepCount(), nsteps);
    EXPECT_EQ(r.steps_run, nsteps + r.replay_steps);

    EXPECT_TRUE(bitIdentical(survivor->state(), baseline->state(),
                             baseline->geom()));
    EXPECT_EQ(survivor->time(), baseline->time());
    // The report renders, including the StepGuard block.
    EXPECT_NE(sup.summary().find("step-guard"), std::string::npos);
}

TEST_F(ResilienceTest, SedovSurvivesRepeatedFailures) {
    const int nsteps = 10;
    auto baseline = makeBlast();
    for (int i = 0; i < nsteps; ++i) baseline->step(baseline->estimateDt());

    TmpDir tmp("sedov_multi");
    auto survivor = makeBlast();
    ResilienceSupervisor sup(*survivor, sedovSupervisor(tmp.path, 4));
    {
        // Three kills: heartbeat hits 3, 7, 11 (replayed steps also
        // beat). The window is [start, start+count) strided, so count
        // spans the whole range, not the number of fires.
        fault::Spec s;
        s.start = 3;
        s.count = 9;
        s.stride = 4;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 3);
    EXPECT_EQ(sup.ranksAlive(), 1);
    EXPECT_TRUE(bitIdentical(survivor->state(), baseline->state(),
                             baseline->geom()));
}

TEST_F(ResilienceTest, CorruptNewestSlotFallsBackToFullRollback) {
    const int nsteps = 7;
    auto baseline = makeBlast();
    for (int i = 0; i < nsteps; ++i) baseline->step(baseline->estimateDt());

    TmpDir tmp("fallback");
    auto survivor = makeBlast();
    SupervisorOptions opt = sedovSupervisor(tmp.path, 4);
    opt.checkpoint.interval_hint = 2;
    opt.checkpoint.async = false; // deterministic per-fab write ordering
    ResilienceSupervisor sup(*survivor, opt);
    {
        // Checkpoints land at steps 0/2/4/... with 8 fabs each; corrupt
        // every fab of the third checkpoint (step 4, newest at the kill),
        // so the localized restore hits a CRC failure and must roll back
        // to the other slot (step 2) and replay from there.
        fault::Spec flip;
        flip.start = 16;
        flip.count = 8;
        fault::arm(fault::Site::CheckpointBitFlip, flip);
        fault::Spec s;
        s.start = 4; // kill after the 5th step
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
        fault::disarm(fault::Site::CheckpointBitFlip);
    }
    const SupervisorReport& r = sup.report();
    EXPECT_EQ(r.ranks_recovered, 1);
    EXPECT_EQ(r.localized_restores, 0);
    EXPECT_EQ(r.full_rollbacks, 1);
    EXPECT_EQ(r.replay_steps, 3); // killed after step 5, rolled back to 2
    EXPECT_TRUE(bitIdentical(survivor->state(), baseline->state(),
                             baseline->geom()));
}

TEST_F(ResilienceTest, UnrecoverableWhenEveryCheckpointIsCorrupt) {
    TmpDir tmp("nockpt");
    auto survivor = makeBlast();
    SupervisorOptions opt = sedovSupervisor(tmp.path, 4);
    opt.checkpoint.interval_hint = 64; // only the step-0 checkpoint exists
    ResilienceSupervisor sup(*survivor, opt);
    // Flip a bit in every fab of every checkpoint write: when the kill
    // arrives, the victim's disk fabs fail CRC, and the only other slot
    // does not exist — recovery has no usable source and must throw
    // rather than continue from poisoned state.
    fault::Spec flip;
    flip.start = 0;
    flip.count = 0; // unbounded window
    fault::arm(fault::Site::CheckpointBitFlip, flip);
    fault::Spec s;
    s.start = 0;
    fault::arm(fault::Site::RankFailure, s);
    EXPECT_THROW(sup.runSteps(4), std::runtime_error);
    EXPECT_EQ(sup.report().ranks_recovered, 0);
    EXPECT_EQ(sup.report().ranks_failed, 1);
}

class ResilienceBackends : public ::testing::TestWithParam<Backend> {
    void SetUp() override { fault::disarmAll(); }
    void TearDown() override { fault::disarmAll(); }
};

TEST_P(ResilienceBackends, MaestroRankFailureRecoversBitIdentically) {
    ScopedBackend backend(GetParam());
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.guard = quietGuard();
    const int nsteps = 6;

    auto baseline = p.build(net);
    for (int i = 0; i < nsteps; ++i) baseline->step(baseline->estimateDt());

    TmpDir tmp(std::string("maestro_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
    auto survivor = p.build(net);
    ResilienceSupervisor sup(*survivor, sedovSupervisor(tmp.path, 4));
    {
        fault::Spec s;
        s.start = 3;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 1);
    // phi is persisted and restored: the projection warm start — part of
    // the bit-identical trajectory — survives the failure.
    EXPECT_TRUE(bitIdentical(survivor->state(), baseline->state(),
                             baseline->geom()));
    EXPECT_TRUE(
        bitIdentical(survivor->phi(), baseline->phi(), baseline->geom()));
    EXPECT_EQ(survivor->time(), baseline->time());
}

namespace {

struct AmrBlast {
    std::unique_ptr<castro::Castro> amr;
    ReactionNetwork net = makeIgnitionSimple();
};

// The expanding Sedov-like blast of the AMR subcycle suite: tags follow
// the hot region, so regrids genuinely move the fine level between steps
// — the recovery path has to cope with layouts that changed since the
// checkpoint was taken.
AmrBlast makeAmrBlast(int ncell = 16) {
    AmrBlast b;
    Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, IntVect{0, 0, 0});
    AmrInfo info;
    info.max_level = 1;
    info.ref_ratio = 2;
    info.max_grid_size = 8;
    info.blocking_factor = 4;
    info.n_error_buf = 1;
    info.nranks = 4;

    castro::CastroOptions opt;
    opt.bc = DomainBC::allOutflow();
    opt.cfl = 0.3;
    opt.guard = quietGuard();

    const Real r_init = 2.0 / ncell;
    const Real e_in =
        1.0 / ((4.0 / 3.0) * constants::pi * r_init * r_init * r_init);
    castro::Castro::InitFn init = [=](Real x, Real y, Real z) {
        castro::Castro::InitialZone zn;
        zn.rho = 1.0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r_init ? 0.4 * e_in : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    castro::Castro::TagFn tag = [](int /*lev*/, const Geometry&,
                                   const MultiFab& s, MultiFab& tags) {
        const Real thresh = 1.0e-8;
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (u(i, j, k, castro::StateLayout::UTEMP) > thresh)
                    t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    b.amr = std::make_unique<castro::Castro>(geom, info, b.net, eos, opt,
                                             std::move(init), std::move(tag));
    b.amr->init();
    return b;
}

} // namespace

TEST_P(ResilienceBackends, AmrRankFailureRecoversAcrossRegrid) {
    ScopedBackend backend(GetParam());
    const int nsteps = 6;

    AmrBlast baseline = makeAmrBlast();
    for (int i = 0; i < nsteps; ++i)
        baseline.amr->step(baseline.amr->estimateDt());

    TmpDir tmp(std::string("amr_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
    AmrBlast survivor = makeAmrBlast();
    SupervisorOptions opt = sedovSupervisor(tmp.path, 4);
    // Checkpoint at step 0 only (next due at 6): the kill at step 5 sees
    // live grids that have been regridded since, forcing the
    // remake-on-restore path before replay.
    opt.checkpoint.interval_hint = 6;
    ResilienceSupervisor sup(*survivor.amr, opt);
    {
        fault::Spec s;
        s.start = 4;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 1);
    EXPECT_GT(sup.report().replay_steps, 0);

    ASSERT_EQ(survivor.amr->finestLevel(), baseline.amr->finestLevel());
    for (int lev = 0; lev <= baseline.amr->finestLevel(); ++lev) {
        EXPECT_TRUE(bitIdentical(survivor.amr->state(lev),
                                 baseline.amr->state(lev),
                                 baseline.amr->geom(lev)))
            << "level " << lev;
    }
    EXPECT_EQ(survivor.amr->time(), baseline.amr->time());
}

TEST_P(ResilienceBackends, PoissonGravityRankFailureRecoversBitIdentically) {
    // Single-level Castro with Poisson self-gravity: solves are cold, so
    // the potential is a pure function of the restored density and the
    // replay reproduces the uninterrupted run's bytes.
    ScopedBackend backend(GetParam());
    auto net = makeIso7();
    castro::WdCollisionParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.do_react = false;
    p.gravity = castro::GravityType::Poisson;
    const int nsteps = 4;

    castro::WdCollision baseline = p.build(net);
    for (int i = 0; i < nsteps; ++i)
        baseline.castro->step(baseline.castro->estimateDt());

    TmpDir tmp(std::string("poisson_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
    castro::WdCollision survivor = p.build(net);
    ResilienceSupervisor sup(*survivor.castro, sedovSupervisor(tmp.path, 4));
    {
        fault::Spec s;
        s.start = 2;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 1);
    EXPECT_GT(sup.report().replay_steps, 0);
    EXPECT_GT(survivor.castro->gravity().mgTotals().vcycles, 0);
    EXPECT_TRUE(bitIdentical(survivor.castro->state(),
                             baseline.castro->state(),
                             baseline.castro->geom()));
    EXPECT_EQ(survivor.castro->time(), baseline.castro->time());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ResilienceBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                             switch (info.param) {
                             case Backend::Serial: return "Serial";
                             case Backend::OpenMP: return "OpenMP";
                             case Backend::SimGpu: return "SimGpu";
                             case Backend::Debug: return "Debug";
                             default: return "Unknown";
                             }
                         });

// The acceptance problem: a seeded mid-run rank failure in the
// WD-collision setup recovers bit-identically.
TEST_F(ResilienceTest, WdCollisionRankFailureRecoversBitIdentically) {
    auto net = makeIso7();
    castro::WdCollisionParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    const int nsteps = 5;

    castro::WdCollision baseline = p.build(net);
    for (int i = 0; i < nsteps; ++i)
        baseline.castro->step(baseline.castro->estimateDt());

    TmpDir tmp("wd");
    castro::WdCollision survivor = p.build(net);
    ResilienceSupervisor sup(*survivor.castro, sedovSupervisor(tmp.path, 4));
    {
        fault::Spec s;
        s.start = 2;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(nsteps);
    }
    EXPECT_EQ(sup.report().ranks_recovered, 1);
    EXPECT_TRUE(bitIdentical(survivor.castro->state(),
                             baseline.castro->state(),
                             baseline.castro->geom()));
    EXPECT_EQ(survivor.castro->time(), baseline.castro->time());
}

// ---------------------------------------------------------------------
// CommLedger resilience counters
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, LedgerCountsCheckpointsAndRecoveries) {
    CommLedger ledger;
    ledger.attach();

    TmpDir tmp("ledger");
    auto survivor = makeBlast();
    ResilienceSupervisor sup(*survivor, sedovSupervisor(tmp.path, 4));
    {
        fault::Spec s;
        s.start = 3;
        fault::ScopedFault kill(fault::Site::RankFailure, s);
        sup.runSteps(6);
    }
    ledger.detach();

    const SupervisorReport& r = sup.report();
    EXPECT_EQ(ledger.checkpointsWritten(), r.checkpoints_written);
    EXPECT_EQ(ledger.checkpointBytes(), r.checkpoint_bytes);
    EXPECT_EQ(ledger.ranksRecovered(), 1);
    EXPECT_EQ(ledger.recoveryReplaySteps(), r.replay_steps);
    EXPECT_GT(ledger.recoveryBytes(), 0);
}

// ---------------------------------------------------------------------
// Fault-campaign harness
// ---------------------------------------------------------------------

TEST_F(ResilienceTest, CampaignSurvivesMultiFaultSchedule) {
    TmpDir tmp("campaign");
    CampaignOptions opt;
    opt.nseeds = 2;
    opt.steps = 8;
    opt.workdir = tmp.path;
    opt.supervisor.nranks = 4;
    opt.supervisor.checkpoint.interval_hint = 2;
    opt.supervisor.checkpoint.async = false;

    // Three concurrent fault classes: rank deaths (window: kills at
    // heartbeat hits 3 and 7), sparse halo corruption (StepGuard retries
    // it), and a bit flip landing in one checkpoint payload (recovery
    // falls back to the other slot if it needs that fab).
    CampaignFaultSpec kill;
    kill.site = fault::Site::RankFailure;
    kill.spec.start = 3;
    kill.spec.count = 5; // window [3, 8) strided by 4: fires at hits 3, 7
    kill.spec.stride = 4;
    CampaignFaultSpec halo;
    halo.site = fault::Site::HaloPayloadCorrupt;
    halo.spec.probability = 0.002;
    CampaignFaultSpec flip;
    flip.site = fault::Site::CheckpointBitFlip;
    flip.spec.start = 40;
    flip.spec.count = 1;
    opt.faults = {kill, halo, flip};

    const CampaignReport report = runCampaign(
        [](int /*run*/) { return std::shared_ptr<Driver>(makeBlast()); },
        opt);

    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.survivalRate(), 1.0) << report.summary();
    EXPECT_EQ(report.totalRanksRecovered(), 4);
    EXPECT_GT(report.totalReplaySteps(), 0);
    for (const CampaignRunResult& r : report.runs) {
        EXPECT_TRUE(r.survived) << r.error;
        EXPECT_GT(r.checkpoints_written, 0);
        EXPECT_GT(r.wall_seconds, 0.0);
    }
    EXPECT_NE(report.summary().find("survival 100%"), std::string::npos);
    // The harness disarms everything on exit.
    EXPECT_FALSE(fault::anyArmed());
}
