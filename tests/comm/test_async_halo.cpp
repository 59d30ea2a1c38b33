// Tests for the split-phase halo exchange: FillBoundary_nowait /
// ParallelCopy_nowait + HaloHandle::finish() must be bit-identical to the
// blocking calls on every backend, with identical published accounting.
// The driver-level overlap paths (Castro RK stages, Maestro advection,
// the multigrid smoother) have one sequence each, so their tests compare
// every backend against Serial bit-for-bit; under Backend::Debug the
// in-flight ghosts read NaN, so any read of one before finish() breaks
// the match. The Debug backend must also flag handle-lifecycle mistakes
// (forgotten finish, double finish). The *AsyncMatchesSync names are
// kept from when a process-wide switch selected a blocking twin of each
// path: CI filters and the determinism reruns select them by name.
#include "castro/castro.hpp"
#include "castro/sedov.hpp"
#include "comm/halo_handle.hpp"
#include "comm/ledger.hpp"
#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "maestro/maestro.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/interp.hpp"
#include "mesh/multifab.hpp"
#include "perf/device_model.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

using namespace exa;

namespace {

Real f(int i, int j, int k, int n) {
    return std::sin(0.37 * i + 0.11 * j) + 0.21 * k + 1.7 * n;
}

MultiFab makeFilled(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                    int ngrow) {
    MultiFab mf(ba, dm, ncomp, ngrow);
    mf.setVal(-4.0e30); // poison ghosts so un-filled zones still compare
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.array(static_cast<int>(b));
        const Box& vb = mf.box(static_cast<int>(b));
        for (int n = 0; n < ncomp; ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        a(i, j, k, n) = f(i, j, k, n);
    }
    return mf;
}

// Bitwise equality over valid + ghost zones.
void expectIdentical(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.nComp(), b.nComp());
    ASSERT_EQ(a.nGrow(), b.nGrow());
    for (std::size_t fb = 0; fb < a.size(); ++fb) {
        auto aa = a.const_array(static_cast<int>(fb));
        auto bb = b.const_array(static_cast<int>(fb));
        const Box gb = a.fabbox(static_cast<int>(fb));
        for (int n = 0; n < a.nComp(); ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                        ASSERT_EQ(aa(i, j, k, n), bb(i, j, k, n))
                            << "fab " << fb << " @ " << i << ' ' << j << ' ' << k
                            << " comp " << n;
    }
}

} // namespace

// --- primitive-level bit-identity, all backends --------------------------

class AsyncHaloBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(AsyncHaloBackends, FillBoundaryAsyncMatchesSync) {
    ScopedBackend backend(GetParam());
    for (bool periodic : {false, true}) {
        const int nx = 24;
        BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
        ba.maxSize(8);
        DistributionMapping dm(ba, 4);
        const Periodicity per = periodic ? Periodicity(IntVect{nx, nx, nx})
                                         : Periodicity::nonPeriodic();

        MultiFab sync_mf = makeFilled(ba, dm, 3, 2);
        sync_mf.FillBoundary(0, 3, per);
        MultiFab async_mf = makeFilled(ba, dm, 3, 2);
        comm::HaloHandle h = async_mf.FillBoundary_nowait(0, 3, per);
        EXPECT_TRUE(h.pending());
        h.finish();
        EXPECT_FALSE(h.pending());
        expectIdentical(sync_mf, async_mf);

        // Partial component range.
        MultiFab sync_p = makeFilled(ba, dm, 3, 2);
        sync_p.FillBoundary(1, 2, per);
        MultiFab async_p = makeFilled(ba, dm, 3, 2);
        comm::HaloHandle hp = async_p.FillBoundary_nowait(1, 2, per);
        hp.finish();
        expectIdentical(sync_p, async_p);
    }
}

TEST_P(AsyncHaloBackends, ParallelCopyAsyncMatchesSync) {
    ScopedBackend backend(GetParam());
    const int nx = 16;
    BoxArray sba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    sba.maxSize(8);
    DistributionMapping sdm(sba, 4);
    MultiFab src = makeFilled(sba, sdm, 2, 0);

    BoxArray dba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    dba.maxSize(4); // different decomposition
    DistributionMapping ddm(dba, 3);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab sync_dst(dba, ddm, 2, 1);
    sync_dst.setVal(-1.0);
    sync_dst.ParallelCopy(src, 0, 0, 2, 1, per);
    MultiFab async_dst(dba, ddm, 2, 1);
    async_dst.setVal(-1.0);
    comm::HaloHandle h = async_dst.ParallelCopy_nowait(src, 0, 0, 2, 1, per);
    EXPECT_TRUE(h.pending());
    h.finish();
    expectIdentical(sync_dst, async_dst);
}

// Pack-at-post semantics: the payload is captured when the exchange is
// posted, so overwriting the source's valid zones between post and finish
// (what an in-place interior sweep does) must not change what the ghosts
// receive.
TEST_P(AsyncHaloBackends, PackAtPostIsInsensitiveToLaterSourceWrites) {
    ScopedBackend backend(GetParam());
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 2);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab sync_mf = makeFilled(ba, dm, 1, 1);
    sync_mf.FillBoundary(0, 1, per);
    MultiFab async_mf = makeFilled(ba, dm, 1, 1);
    {
        comm::HaloHandle h = async_mf.FillBoundary_nowait(0, 1, per);
        // Clobber the valid interior while the exchange is in flight: the
        // staged payload must be immune.
        for (std::size_t b = 0; b < async_mf.size(); ++b) {
            const Box inner = grow(async_mf.box(static_cast<int>(b)), -1);
            if (!inner.ok()) continue;
            auto a = async_mf.array(static_cast<int>(b));
            for (int k = inner.smallEnd(2); k <= inner.bigEnd(2); ++k)
                for (int j = inner.smallEnd(1); j <= inner.bigEnd(1); ++j)
                    for (int i = inner.smallEnd(0); i <= inner.bigEnd(0); ++i)
                        a(i, j, k) = 7.5;
        }
        h.finish();
    }
    // Ghost zones must match the sync fill of the *original* data.
    for (std::size_t fb = 0; fb < sync_mf.size(); ++fb) {
        auto aa = sync_mf.const_array(static_cast<int>(fb));
        auto bb = async_mf.const_array(static_cast<int>(fb));
        const Box gb = sync_mf.fabbox(static_cast<int>(fb));
        const Box vb = sync_mf.box(static_cast<int>(fb));
        for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
            for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i) {
                    if (vb.contains(i, j, k)) continue;
                    ASSERT_EQ(aa(i, j, k), bb(i, j, k))
                        << "ghost @ " << i << ' ' << j << ' ' << k;
                }
    }
}

TEST_P(AsyncHaloBackends, FillPatchAsyncMatchesSync) {
    ScopedBackend backend(GetParam());
    const Box cdom({0, 0, 0}, {15, 15, 15});
    Geometry cgeom(cdom, {0, 0, 0}, {1, 1, 1}, IntVect{1, 1, 1});
    Geometry fgeom = cgeom.refined(2);

    BoxArray cba(cdom);
    cba.maxSize(8);
    DistributionMapping cdm(cba, 2);
    MultiFab crse = makeFilled(cba, cdm, 1, 1);
    crse.FillBoundary(0, crse.nComp(), cgeom.periodicity());

    BoxArray fba(refine(Box({4, 4, 4}, {11, 11, 11}), 2));
    fba.maxSize(8);
    DistributionMapping fdm(fba, 2);
    MultiFab fine = makeFilled(fba, fdm, 1, 0);

    BoxArray dba(refine(Box({2, 2, 2}, {13, 13, 13}), 2));
    dba.maxSize(12);
    DistributionMapping ddm(dba, 2);

    // The blocking order: a dst that aliases its fine source is only
    // interpolated (its self-copy moves interpolated data onto the same
    // interpolated values), then the fine data is copied on top.
    MultiFab dst_sync(dba, ddm, 1, 2);
    dst_sync.setVal(0.0);
    fillPatchTwoLevels(dst_sync, dst_sync, crse, cgeom, fgeom, 2, 0, 0, 1, 2);
    dst_sync.ParallelCopy(fine, 0, 0, 1, 2, fgeom.periodicity());
    MultiFab dst_async(dba, ddm, 1, 2);
    dst_async.setVal(0.0);
    fillPatchTwoLevels(dst_async, fine, crse, cgeom, fgeom, 2, 0, 0, 1, 2);
    expectIdentical(dst_sync, dst_async);
}

// --- driver-level bit-identity against Serial ----------------------------

TEST_P(AsyncHaloBackends, CastroGuardedStepAsyncMatchesSync) {
    auto net = makeIgnitionSimple();
    castro::SedovParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.guard.enabled = true; // exercise snapshot/validate around the split path

    auto run = [&](Backend be) {
        ScopedBackend backend(be);
        auto c = p.build(net);
        const Real dt = c->estimateDt();
        for (int s = 0; s < 2; ++s) c->step(dt);
        return c;
    };
    auto sync_c = run(Backend::Serial);
    auto async_c = run(GetParam());
    expectIdentical(sync_c->state(), async_c->state());
}

TEST_P(AsyncHaloBackends, CastroPpmStepAsyncMatchesSync) {
    // PPM widens the stencil to 3. On 8^3 boxes that leaves a 2^3
    // interior, below the eighth rule: every fab is whole and level 0
    // exchanges eagerly. 12^3 boxes leave a 6^3 interior and split the
    // exchange. Both must match the Serial run bit-for-bit.
    auto net = makeIgnitionSimple();
    for (const int mgs : {8, 12}) {
        SCOPED_TRACE(::testing::Message() << "max_grid_size " << mgs);
        auto run = [&](Backend be) {
            ScopedBackend backend(be);
            Box dom({0, 0, 0}, {23, 23, 23});
            Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
            AmrInfo info;
            info.max_grid_size = mgs;
            info.nranks = 2;
            castro::CastroOptions opt;
            opt.bc = DomainBC::allOutflow();
            opt.reconstruction = castro::Reconstruction::PPM;
            Eos eos{GammaLawEos{1.4}};
            auto c = std::make_unique<castro::Castro>(
                geom, info, net, eos, opt, [&](Real x, Real, Real) {
                    castro::Castro::InitialZone z;
                    z.rho = x < 0.5 ? 1.0 : 0.125;
                    z.p = x < 0.5 ? 1.0 : 0.1;
                    z.X = {1.0, 0.0};
                    return z;
                });
            c->init();
            c->step(c->estimateDt());
            return c;
        };
        auto sync_c = run(Backend::Serial);
        auto async_c = run(GetParam());
        EXPECT_EQ(CopierCache::instance().interiorPartition(async_c->boxArray(0), 3)->overlaps,
                  mgs == 12);
        expectIdentical(sync_c->state(), async_c->state());
    }
}

TEST_P(AsyncHaloBackends, CastroAmrStepAsyncMatchesSync) {
    // Level 0 of a two-level hierarchy sweeps split-phase while its flux
    // fabs feed the coarse side of the level-1 register: the region-split
    // fluxes, the reflux and the fine level's fillPatch must all match the
    // Serial run bit-for-bit. 12^3 level-0 boxes give PPM a 6^3 interior,
    // enough for every level-0 fab to overlap its exchange.
    auto net = makeIgnitionSimple();
    auto run = [&](Backend be) {
        ScopedBackend backend(be);
        const int n = 24;
        Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
        Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
        AmrInfo info;
        info.max_level = 1;
        info.max_grid_size = 12;
        info.blocking_factor = 4;
        info.nranks = 4;
        castro::CastroOptions opt;
        opt.bc = DomainBC::allOutflow();
        opt.cfl = 0.3;
        opt.reconstruction = castro::Reconstruction::PPM;
        const Real r_init = 2.0 / n;
        const Real e_in = 1.0 / ((4.0 / 3.0) * constants::pi * std::pow(r_init, 3));
        castro::Castro::InitFn init = [=](Real x, Real y, Real z) {
            castro::Castro::InitialZone zn;
            const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                     (z - 0.5) * (z - 0.5));
            zn.p = r <= r_init ? 0.4 * e_in : 1.0e-5;
            zn.X = {1.0, 0.0};
            return zn;
        };
        castro::Castro::TagFn tag = [](int, const Geometry&, const MultiFab& s,
                                       MultiFab& tags) {
            for (std::size_t b = 0; b < tags.size(); ++b) {
                auto t = tags.array(static_cast<int>(b));
                auto u = s.const_array(static_cast<int>(b));
                ParallelFor(tags.box(static_cast<int>(b)), [=](int i, int j, int k) {
                    if (u(i, j, k, castro::StateLayout::UTEMP) > 1.0e-8) t(i, j, k) = 1.0;
                });
            }
        };
        auto c = std::make_unique<castro::Castro>(geom, info, net, Eos{GammaLawEos{1.4}},
                                                  opt, init, tag);
        c->init();
        const Real dt = c->estimateDt();
        for (int s = 0; s < 2; ++s) c->step(dt);
        return c;
    };
    auto sync_c = run(Backend::Serial);
    auto async_c = run(GetParam());
    ASSERT_EQ(sync_c->finestLevel(), 1);
    ASSERT_TRUE(sync_c->reflux);
    ASSERT_EQ(async_c->finestLevel(), sync_c->finestLevel());
    for (int lev = 0; lev <= sync_c->finestLevel(); ++lev) {
        SCOPED_TRACE("level " + std::to_string(lev));
        expectIdentical(sync_c->state(lev), async_c->state(lev));
    }
}

TEST_P(AsyncHaloBackends, MaestroAdvanceAsyncMatchesSync) {
    auto net = makeIgnitionSimple();
    maestro::BubbleParams p;
    p.ncell = 16;
    p.max_grid_size = 8;
    p.nranks = 4;
    p.do_react = false;

    auto run = [&](Backend be) {
        ScopedBackend backend(be);
        auto m = p.build(net);
        const Real dt = m->estimateDt();
        m->step(dt);
        return m;
    };
    auto sync_m = run(Backend::Serial);
    auto async_m = run(GetParam());
    expectIdentical(sync_m->state(), async_m->state());
}

TEST_P(AsyncHaloBackends, MultigridSolveAsyncMatchesSync) {
    for (MgBC bc : {MgBC::Periodic, MgBC::Dirichlet, MgBC::Neumann}) {
        const int n = 16;
        Box dom({0, 0, 0}, {n - 1, n - 1, n - 1});
        const IntVect per = bc == MgBC::Periodic ? IntVect{1, 1, 1} : IntVect{0, 0, 0};
        Geometry geom(dom, {0, 0, 0}, {1, 1, 1}, per);
        BoxArray ba(dom);
        ba.maxSize(8);
        DistributionMapping dm(ba, 4);

        auto makeRhs = [&]() {
            MultiFab rhs(ba, dm, 1, 0);
            for (std::size_t i = 0; i < rhs.size(); ++i) {
                auto r = rhs.array(static_cast<int>(i));
                const Box& vb = rhs.box(static_cast<int>(i));
                for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                    for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                        for (int i2 = vb.smallEnd(0); i2 <= vb.bigEnd(0); ++i2)
                            r(i2, j, k) = f(i2, j, k, 0);
            }
            return rhs;
        };

        auto run = [&](Backend be, MultiFab& phi) {
            ScopedBackend backend(be);
            CompositeMgOptions opt;
            opt.max_vcycles = 4; // few cycles: enough to compare trajectories
            opt.nranks = 4;
            CompositeMg mg({geom}, {ba}, {dm}, 2, bc, opt);
            MultiFab rhs = makeRhs();
            phi.define(ba, dm, 1, 1);
            phi.setVal(0.0);
            return mg.solve({&phi}, {&rhs});
        };
        MultiFab phi_sync, phi_async;
        const CompositeMgResult rs = run(Backend::Serial, phi_sync);
        const CompositeMgResult ra = run(GetParam(), phi_async);
        EXPECT_EQ(rs.vcycles, ra.vcycles);
        EXPECT_EQ(rs.final_resnorm, ra.final_resnorm);
        expectIdentical(phi_sync, phi_async);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncHaloBackends,
                         ::testing::Values(Backend::Serial, Backend::OpenMP,
                                           Backend::SimGpu, Backend::Debug),
                         [](const auto& info) {
                             return std::string(backendName(info.param));
                         });

// --- handle lifecycle ----------------------------------------------------

TEST(AsyncHalo, EmptyAndMovedHandlesAreSafe) {
    comm::HaloHandle empty;
    EXPECT_FALSE(empty.pending());
    empty.finish(); // no-op
    empty.finish(); // still a no-op, no violation on any backend

    const int nx = 8;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 1);
    MultiFab mf = makeFilled(ba, dm, 1, 1);
    comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, Periodicity(IntVect{nx, nx, nx}));
    comm::HaloHandle h2 = std::move(h);
    EXPECT_FALSE(h.pending()); // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_TRUE(h2.pending());
    h.finish(); // moved-from: no-op
    h2.finish();
    EXPECT_FALSE(h2.pending());
}

TEST(AsyncHalo, DestructorCompletesDelivery) {
    // On the Debug backend the drop below is (deliberately) a lifecycle
    // violation; trap it so this test checks delivery on every backend.
    debug::ScopedViolationTrap trap;
    const int nx = 8;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 2);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab reference = makeFilled(ba, dm, 1, 1);
    reference.FillBoundary(0, 1, per);

    MultiFab mf = makeFilled(ba, dm, 1, 1);
    {
        comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, per);
        // Dropped without finish(): RAII must still deliver (and, on the
        // Debug backend, flag the forgotten finish — tested below).
    }
    expectIdentical(reference, mf);
    debug::clearViolations();
}

// --- Debug-backend lifecycle diagnostics ---------------------------------

TEST(AsyncHaloDebug, ForgottenFinishIsFlagged) {
    ScopedBackend backend(Backend::Debug);
    debug::ScopedViolationTrap trap;
    debug::clearViolations();

    const int nx = 8;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 2);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab reference = makeFilled(ba, dm, 1, 1);
    reference.FillBoundary(0, 1, per);

    MultiFab mf = makeFilled(ba, dm, 1, 1);
    {
        comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, per);
    } // destroyed pending
    const auto v = debug::violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, "halo-unfinished");
    // The destructor still completed the delivery.
    expectIdentical(reference, mf);
    debug::clearViolations();
}

TEST(AsyncHaloDebug, DoubleFinishIsFlagged) {
    ScopedBackend backend(Backend::Debug);
    debug::ScopedViolationTrap trap;
    debug::clearViolations();

    const int nx = 8;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 2);
    const Periodicity per(IntVect{nx, nx, nx});

    MultiFab mf = makeFilled(ba, dm, 1, 1);
    comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, per);
    h.finish();
    EXPECT_TRUE(debug::violations().empty());
    h.finish(); // second finish: flagged, not re-delivered
    const auto v = debug::violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, "halo-double-finish");
    debug::clearViolations();
}

// --- Debug poisoning of in-flight zones ---------------------------------

namespace {

// A stencil sweep whose x neighbours reach one ghost zone past each valid
// box, run either between post and finish() (`early`, a deliberately
// over-wide interior sweep) or after finish(). The ghosts are already
// current before the post, so a stale read returns the fresh value.
MultiFab neighbourSum(Backend be, bool early) {
    ScopedBackend backend(be);
    const int nx = 8;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 2);
    const Periodicity per(IntVect{nx, nx, nx});
    MultiFab mf = makeFilled(ba, dm, 1, 1);
    mf.FillBoundary(0, 1, per);
    MultiFab out(ba, dm, 1, 0);
    auto sweep = [&] {
        for (std::size_t b = 0; b < mf.size(); ++b) {
            auto in = mf.const_array(static_cast<int>(b));
            auto o = out.array(static_cast<int>(b));
            ParallelFor(mf.box(static_cast<int>(b)), [=](int i, int j, int k) {
                o(i, j, k) = in(i - 1, j, k) + in(i + 1, j, k);
            });
        }
    };
    comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, per);
    if (early) sweep();
    h.finish();
    if (!early) sweep();
    return out;
}

// Zones (valid + ghost) whose value satisfies `pred`.
template <typename Pred>
std::int64_t countZones(const MultiFab& mf, Pred pred) {
    std::int64_t n = 0;
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.const_array(static_cast<int>(b));
        const Box gb = mf.fabbox(static_cast<int>(b));
        for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
            for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i)
                    n += pred(a(i, j, k)) ? 1 : 0;
    }
    return n;
}

bool isNaN(Real v) { return std::isnan(v); }

} // namespace

TEST(AsyncHaloDebug, EarlyGhostReadDiffersFromSerial) {
    const MultiFab serial = neighbourSum(Backend::Serial, /*early=*/false);
    // On Serial the early read sees stale ghosts equal to the fresh ones:
    // the bug is invisible.
    expectIdentical(serial, neighbourSum(Backend::Serial, /*early=*/true));
    // On Debug the in-flight ghosts are NaN, so it shows in every zone
    // next to a box face in x, and only there.
    const MultiFab debug = neighbourSum(Backend::Debug, /*early=*/true);
    std::int64_t face_zones = 0;
    for (std::size_t b = 0; b < debug.size(); ++b) {
        const Box& vb = debug.box(static_cast<int>(b));
        face_zones += 2 * vb.length(1) * vb.length(2);
    }
    EXPECT_EQ(countZones(debug, isNaN), face_zones);
    // Reading after finish() matches Serial on Debug too.
    expectIdentical(serial, neighbourSum(Backend::Debug, /*early=*/false));
}

TEST(AsyncHaloDebug, DroppedItemKeepsStaleGhostsAsOnSerial) {
    // Every third off-rank item drops. Poisoning is off while the drop
    // site is armed, so a dropped item's ghosts keep the stale sentinel
    // makeFilled wrote, on Debug exactly as on Serial.
    auto run = [](Backend be) {
        ScopedBackend backend(be);
        const int nx = 8;
        BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
        ba.maxSize(4);
        DistributionMapping dm(ba, 4);
        const Periodicity per(IntVect{nx, nx, nx});
        fault::Spec spec;
        spec.count = 0; // unbounded
        spec.stride = 3;
        fault::ScopedFault drop(fault::Site::CommMessageDrop, spec);
        MultiFab mf = makeFilled(ba, dm, 1, 1);
        comm::HaloHandle h = mf.FillBoundary_nowait(0, 1, per);
        h.finish();
        EXPECT_GT(fault::stats(fault::Site::CommMessageDrop).fires, 0);
        return mf;
    };
    const MultiFab serial = run(Backend::Serial);
    const MultiFab debug = run(Backend::Debug);
    expectIdentical(serial, debug);
    EXPECT_EQ(countZones(debug, isNaN), 0);
    const std::int64_t stale = countZones(debug, [](Real v) { return v == -4.0e30; });
    EXPECT_GT(stale, 0);
}

// --- ledger in-flight tracking -------------------------------------------

TEST(AsyncHalo, LedgerTracksSplitPhaseExchanges) {
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 8); // one box per rank: everything off-rank
    const Periodicity per(IntVect{nx, nx, nx});

    CommLedger ledger;
    ledger.attach();

    MultiFab a = makeFilled(ba, dm, 1, 1);
    MultiFab b = makeFilled(ba, dm, 1, 1);
    {
        comm::HaloHandle ha = a.FillBoundary_nowait(0, 1, per);
        EXPECT_EQ(ledger.halosPosted(), 1);
        EXPECT_EQ(ledger.halosInFlight(), 1);
        comm::HaloHandle hb = b.FillBoundary_nowait(0, 1, per);
        EXPECT_EQ(ledger.halosPosted(), 2);
        EXPECT_EQ(ledger.halosInFlight(), 2);
        EXPECT_EQ(ledger.maxHalosInFlight(), 2);
        EXPECT_EQ(ledger.totalMessages(), 0); // nothing delivered yet
        ha.finish();
        EXPECT_EQ(ledger.halosInFlight(), 1);
        hb.finish();
        EXPECT_EQ(ledger.halosInFlight(), 0);
    }
    EXPECT_GT(ledger.totalMessages(), 0);
    // Every message was delivered by a finish() — i.e. overlapped.
    EXPECT_EQ(ledger.splitPhaseMessages(), ledger.totalMessages());

    // The same exchanges, blocking, move identical bytes.
    CommLedger fused;
    ledger.detach();
    fused.attach();
    a.FillBoundary(0, 1, per);
    b.FillBoundary(0, 1, per);
    EXPECT_EQ(fused.totalBytes(), ledger.totalBytes());
    EXPECT_EQ(fused.totalMessages(), ledger.totalMessages());
    EXPECT_EQ(fused.halosPosted(), 0);
    EXPECT_EQ(fused.splitPhaseMessages(), 0);
    fused.detach();
}

// --- fused launches ------------------------------------------------------

TEST(AsyncHalo, SplitPhaseExchangeIsTwoFabCopyLaunches) {
    // The post packs every plan item in one launch and finish() unpacks
    // them all in a second, with the data, messages and bytes of one
    // copy per item.
    ScopedBackend backend(Backend::SimGpu);
    const int nx = 16;
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 4);
    const Periodicity per(IntVect{nx, nx, nx});
    const int ncomp = 3;
    const auto plan = CopierCache::instance().fillBoundary(ba, dm, 1, per);
    ASSERT_GT(plan->items.size(), ba.size());

    MultiFab ref = makeFilled(ba, dm, ncomp, 1);
    std::int64_t ref_messages = 0, ref_bytes = 0;
    for (const CopyItem& item : plan->items) {
        ref.fab(item.dst_fab).copyFrom(ref.fab(item.src_fab), item.src_box, 0,
                                       item.dst_box, 0, ncomp);
        if (item.local()) continue;
        ++ref_messages;
        ref_bytes += item.src_box.numPts() * ncomp * static_cast<std::int64_t>(sizeof(Real));
    }
    ASSERT_GT(ref_messages, 0);

    MultiFab mf = makeFilled(ba, dm, ncomp, 1);
    DeviceModel dev;
    CommLedger ledger;
    dev.attach();
    ledger.attach();
    comm::HaloHandle h = mf.FillBoundary_nowait(0, ncomp, per);
    EXPECT_EQ(dev.numLaunches(), 1);
    h.finish();
    dev.detach();
    ledger.detach();

    EXPECT_EQ(dev.numLaunches(), 2);
    const auto& ks = dev.kernelStats().at("fab_copy");
    EXPECT_EQ(ks.launches, 2);
    EXPECT_EQ(ks.zones, 2 * plan->zones * ncomp);
    EXPECT_EQ(ledger.totalMessages(), ref_messages);
    EXPECT_EQ(ledger.totalBytes(), ref_bytes);
    expectIdentical(mf, ref);
}
