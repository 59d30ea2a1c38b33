// The ensemble service layer: the uniform Scenario API, the
// ScenarioRegistry, and the EnsembleRunner that multiplexes many
// simulations over shared infrastructure.
//
// The load-bearing assertions are bit-identity: an N=1 ensemble run is
// byte-for-byte the run a hand-written driver loop produces, for every
// scenario kind on every backend; a mixed ensemble is deterministic and
// equal to its members run solo, threaded workers included. Around those
// sit the shared-infrastructure exactness checks: per-tenant PoolArena
// accounting balances to zero under adversarial cross-thread frees, the
// shared CommLedger buckets traffic by tenant, and per-tenant timer
// registries keep tenants' timings out of the global namespace.

#include "castro/sedov.hpp"
#include "castro/wd_collision.hpp"
#include "comm/ledger.hpp"
#include "core/arena.hpp"
#include "core/parallel_for.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/scenarios.hpp"
#include "ensemble/work_queue.hpp"
#include "maestro/maestro.hpp"
#include "mesh/copier_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

using namespace exa;
using namespace exa::ensemble;

namespace {

// Tiny problem configs: the whole suite reruns under the Debug backend
// (snapshot/replay per kernel), so zone counts stay minimal.
castro::SedovParams tinySedov() {
    castro::SedovParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.nranks = 2;
    return p;
}

maestro::BubbleParams tinyBubble() {
    maestro::BubbleParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.nranks = 2;
    return p;
}

AmrBlastParams tinyAmrBlast() {
    AmrBlastParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.blocking_factor = 4;
    p.nranks = 2;
    return p;
}

castro::WdCollisionParams tinyWd() {
    castro::WdCollisionParams p;
    p.ncell = 8;
    p.max_grid_size = 8;
    p.nranks = 2;
    p.network = "iso7";
    return p;
}

const Backend kBackends[] = {Backend::Serial, Backend::OpenMP, Backend::SimGpu,
                             Backend::Debug};

// What an N=1 ensemble run reports for its one tenant.
struct Solo {
    std::uint32_t crc = 0;
    std::int64_t zones = 0;
    std::uint64_t state_bytes = 0;
};

// Run `scenario` alone through an N=1 ensemble; read its CRC from the
// report and its accounting from the retired scenario.
Solo runSolo(std::unique_ptr<Scenario> scenario) {
    EnsembleRunner runner;
    const int id = runner.add(std::move(scenario));
    auto report = runner.run();
    const Scenario& s = runner.scenario(id);
    return {report.tenants[static_cast<std::size_t>(id)].crc, s.zones(),
            s.stateBytes()};
}

} // namespace

// --- ScenarioConfig ------------------------------------------------------

TEST(ScenarioConfig, FromArgsParsesKeyValueTokens) {
    char a0[] = "prog", a1[] = "ncell=24", a2[] = "cfl=0.3", a3[] = "flag=on";
    char* argv[] = {a0, a1, a2, a3};
    auto cfg = ScenarioConfig::fromArgs(4, argv);
    EXPECT_EQ(cfg.getInt("ncell", 0), 24);
    EXPECT_DOUBLE_EQ(cfg.getReal("cfl", 0.0), 0.3);
    EXPECT_TRUE(cfg.getBool("flag", false));
    EXPECT_EQ(cfg.getString("absent", "dflt"), "dflt");
}

TEST(ScenarioConfig, RejectsMalformedTokensAndValues) {
    char a0[] = "prog", a1[] = "no-equals";
    char* argv[] = {a0, a1};
    EXPECT_THROW(ScenarioConfig::fromArgs(2, argv), std::invalid_argument);

    ScenarioConfig cfg;
    cfg.set("n", "12x");
    EXPECT_THROW(cfg.getInt("n", 0), std::invalid_argument);
    cfg.set("x", "1.5.2");
    EXPECT_THROW(cfg.getReal("x", 0.0), std::invalid_argument);
    cfg.set("b", "maybe");
    EXPECT_THROW(cfg.getBool("b", false), std::invalid_argument);
}

TEST(ScenarioConfig, UnconsumedKeysAreHardErrors) {
    ScenarioConfig cfg;
    cfg.set("ncell", "8");
    cfg.set("ncelll", "16"); // typo
    (void)cfg.getInt("ncell", 0);
    EXPECT_EQ(cfg.unconsumedKeys(), std::vector<std::string>{"ncelll"});
    try {
        cfg.requireAllConsumed("sedov");
        FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("ncelll"), std::string::npos);
        EXPECT_NE(msg.find("sedov"), std::string::npos);
    }
}

// --- Registry ------------------------------------------------------------

TEST(ScenarioRegistry, BuiltInsAreRegistered) {
    auto& reg = ScenarioRegistry::instance();
    for (const char* name : {"sedov", "bubble", "amr-blast", "wd-collision"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
}

TEST(ScenarioRegistry, UnknownNameThrowsListingRegistered) {
    try {
        makeScenarioByName("sedoof");
        FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("sedoof"), std::string::npos);
        EXPECT_NE(msg.find("sedov"), std::string::npos);
        EXPECT_NE(msg.find("wd-collision"), std::string::npos);
    }
}

TEST(ScenarioRegistry, UnknownConfigKeyThrows) {
    ScenarioConfig cfg;
    cfg.set("ncelll", "8"); // typo must not be silently ignored
    EXPECT_THROW(makeScenarioByName("sedov", cfg), std::invalid_argument);
}

TEST(ScenarioRegistry, ConfigConstructionMatchesTypedParams) {
    // The registry path and the typed-params path must build the same
    // problem: same initial state bytes.
    ScenarioConfig cfg;
    cfg.set("ncell", "8");
    cfg.set("max-grid-size", "8");
    cfg.set("nranks", "2");
    cfg.set("max-steps", "2");
    auto from_cfg = makeScenarioByName("sedov", cfg);
    from_cfg->init();

    auto from_params = std::make_unique<SedovScenario>(
        tinySedov(), RunLimits{0.0, 2, 0.0});
    from_params->init();
    EXPECT_EQ(from_cfg->stateCrc(), from_params->stateCrc());
}

// --- maxDt / finished ----------------------------------------------------

TEST(Scenario, MaxDtHonorsCapsAndTStop) {
    auto s = std::make_unique<SedovScenario>(tinySedov(),
                                             RunLimits{0.5, 0, 1.0e-9});
    s->init();
    EXPECT_DOUBLE_EQ(s->maxDt(), 1.0e-9); // max_dt cap binds
    EXPECT_FALSE(s->finished());

    auto s2 = std::make_unique<SedovScenario>(tinySedov(),
                                              RunLimits{0.0, 1, 0.0});
    s2->init();
    EXPECT_DOUBLE_EQ(s2->maxDt(), s2->driver().estimateDt());
    s2->advanceOnce();
    EXPECT_TRUE(s2->finished()); // max_steps = 1
}

// --- N=1 bit-identity, every scenario, every backend ---------------------
//
// The contract: an ensemble of one is byte-for-byte the run a bespoke
// driver loop produces. The direct side uses the raw driver (params
// build() + step(estimateDt())), NOT the Scenario wrapper, so the test
// also pins the wrapper's dt formula to the hand-written one, and its
// zone and residency accounting to counts taken from the driver's own
// MultiFabs.

TEST(EnsembleBitIdentity, SedovMatchesDirectDriverOnAllBackends) {
    auto net = makeIgnitionSimple();
    const auto p = tinySedov();
    for (Backend b : kBackends) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        auto direct = p.build(net);
        for (int s = 0; s < 2; ++s) direct->step(direct->estimateDt());

        const Solo got = runSolo(std::make_unique<SedovScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got.crc, stateCrc(direct->state()));
        EXPECT_EQ(got.zones, direct->state().boxArray().numPts());
        EXPECT_EQ(got.state_bytes, stateBytesOf(direct->state()));
    }
}

TEST(EnsembleBitIdentity, BubbleMatchesDirectDriverOnAllBackends) {
    auto net = makeIgnitionSimple();
    const auto p = tinyBubble();
    for (Backend b : kBackends) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        auto direct = p.build(net);
        for (int s = 0; s < 2; ++s) direct->step(direct->estimateDt());

        const Solo got = runSolo(std::make_unique<BubbleScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got.crc, stateCrc(direct->state()));
        EXPECT_EQ(got.zones, direct->state().boxArray().numPts());
        // The projection companions are resident with the state.
        EXPECT_EQ(got.state_bytes, stateBytesOf(direct->state()) +
                                       stateBytesOf(direct->phi()) +
                                       stateBytesOf(direct->divu()));
    }
}

TEST(EnsembleBitIdentity, AmrBlastMatchesDirectDriverOnAllBackends) {
    auto net = makeIgnitionSimple();
    const auto p = tinyAmrBlast();
    for (Backend b : kBackends) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        auto direct = p.build(net);
        for (int s = 0; s < 2; ++s) direct->step(direct->estimateDt());
        ASSERT_GE(direct->finestLevel(), 1);
        std::uint32_t crc = 0;
        std::int64_t zones = 0;
        std::uint64_t bytes = 0;
        for (int lev = 0; lev <= direct->finestLevel(); ++lev) {
            crc = stateCrc(direct->state(lev), crc);
            zones += direct->numZones(lev);
            bytes += stateBytesOf(direct->state(lev));
        }

        const Solo got = runSolo(std::make_unique<AmrBlastScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got.crc, crc);
        EXPECT_EQ(got.zones, zones);
        EXPECT_EQ(got.state_bytes, bytes);
    }
}

TEST(EnsembleBitIdentity, WdCollisionMatchesDirectDriverOnAllBackends) {
    const auto p = tinyWd();
    for (Backend b : kBackends) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        auto direct = p.build();
        for (int s = 0; s < 2; ++s)
            direct.castro->step(direct.castro->estimateDt());
        const MultiFab& state = direct.castro->state();

        const Solo got = runSolo(std::make_unique<WdCollisionScenario>(
            p, RunLimits{0.0, 2, 0.0}));
        EXPECT_EQ(got.crc, stateCrc(state));
        EXPECT_EQ(got.zones, state.boxArray().numPts());
        EXPECT_EQ(got.state_bytes, stateBytesOf(state));
    }
}

// --- The retry snapshot is the scenario's state ---------------------------

namespace {

// A scenario over a driver the test built itself (the registry's amr-blast
// has no step-guard setting).
class HeldDriverScenario final : public DriverScenario {
public:
    explicit HeldDriverScenario(std::shared_ptr<Driver> d)
        : DriverScenario("held", RunLimits{0.0, 1, 0.0}), m_held(std::move(d)) {}
    void init() override { m_driver = m_held.get(); }
    std::string summary() const override { return "held"; }

private:
    std::shared_ptr<Driver> m_held;
};

// amr-blast's initial condition and tagging on a 16^3 base grid with one
// refined level, under the step guard.
std::shared_ptr<castro::Castro> guardedAmrBlast(const ReactionNetwork& net) {
    using namespace castro;
    const Geometry geom(Box({0, 0, 0}, {15, 15, 15}), {0, 0, 0}, {1, 1, 1});
    AmrInfo info;
    info.max_level = 1;
    info.max_grid_size = 8;
    info.nranks = 2;
    CastroOptions opt;
    opt.guard.enabled = true;
    auto init = [](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        const Real r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                        (z - 0.5) * (z - 0.5);
        zn.p = r2 <= 0.125 * 0.125 ? 100.0 : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    auto tag = [](int, const Geometry&, const MultiFab& s, MultiFab& tags) {
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (u(i, j, k, StateLayout::UTEMP) > 1.0e-8) t(i, j, k) = 1.0;
            });
        }
    };
    auto c = std::make_shared<Castro>(geom, info, net, Eos{GammaLawEos{1.4}}, opt,
                                      init, tag);
    c->init();
    return c;
}

} // namespace

TEST(DriverScenario, GuardSnapshotIsExactlyTheScenarioState) {
    const ReactionNetwork net = makeIgnitionSimple();
    auto castro = guardedAmrBlast(net);
    ASSERT_EQ(castro->finestLevel(), 1);
    HeldDriverScenario blast(castro);
    blast.init();
    blast.advanceOnce();
    EXPECT_EQ(castro->retryStats().steps_guarded, 1);
    EXPECT_EQ(static_cast<std::uint64_t>(castro->retryStats().snapshot_bytes),
              blast.stateBytes());

    maestro::BubbleParams p = tinyBubble();
    p.guard.enabled = true;
    BubbleScenario bubble(p, RunLimits{0.0, 1, 0.0}, makeIgnitionSimple());
    bubble.init();
    bubble.advanceOnce();
    EXPECT_EQ(bubble.driver().retryStats().steps_guarded, 1);
    EXPECT_EQ(static_cast<std::uint64_t>(bubble.driver().retryStats().snapshot_bytes),
              bubble.stateBytes());
}

// --- Mixed-ensemble determinism ------------------------------------------

namespace {

// A small mixed fleet; returns label -> CRC.
std::map<std::string, std::uint32_t> runMixed(int workers) {
    EnsembleOptions opt;
    opt.workers = workers;
    EnsembleRunner runner(opt);
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 2, 0.0}));
    runner.add(std::make_unique<BubbleScenario>(tinyBubble(),
                                                RunLimits{0.0, 2, 0.0}));
    runner.add(std::make_unique<AmrBlastScenario>(tinyAmrBlast(),
                                                  RunLimits{0.0, 2, 0.0}));
    runner.add(std::make_unique<SedovScenario>(
        [] {
            auto p = tinySedov();
            p.E = 1.5; // a different survey point, same kind
            return p;
        }(),
        RunLimits{0.0, 2, 0.0}));
    auto report = runner.run();
    std::map<std::string, std::uint32_t> out;
    for (const auto& t : report.tenants) out[t.label] = t.crc;
    return out;
}

} // namespace

TEST(EnsembleDeterminism, MixedEnsembleMatchesSoloAndRepeats) {
    const auto once = runMixed(1);
    const auto again = runMixed(1);
    EXPECT_EQ(once, again);

    // Interleaving tenants changes nothing: each equals its solo run.
    EXPECT_EQ(once.at("sedov#0"),
              runSolo(std::make_unique<SedovScenario>(tinySedov(),
                                                      RunLimits{0.0, 2, 0.0}))
                  .crc);
    EXPECT_EQ(once.at("bubble#1"),
              runSolo(std::make_unique<BubbleScenario>(
                          tinyBubble(), RunLimits{0.0, 2, 0.0}))
                  .crc);
    EXPECT_EQ(once.at("amr-blast#2"),
              runSolo(std::make_unique<AmrBlastScenario>(
                          tinyAmrBlast(), RunLimits{0.0, 2, 0.0}))
                  .crc);
    // The E=1.5 survey point must differ from the E=1 baseline.
    EXPECT_NE(once.at("sedov#0"), once.at("sedov#3"));
}

TEST(EnsembleDeterminism, ThreadedWorkersAreBitIdentical) {
    if (ExecConfig::backend() == Backend::SimGpu ||
        ExecConfig::backend() == Backend::Debug) {
        GTEST_SKIP() << "threaded workers are forced to 1 on this backend";
    }
    const auto solo = runMixed(1);
    const auto threaded = runMixed(2);
    const auto threaded2 = runMixed(2);
    EXPECT_EQ(solo, threaded);
    EXPECT_EQ(threaded, threaded2);
}

// Under OpenMP each worker forks its own thread teams; the runner splits
// the thread budget between workers, and the results stay those of one
// worker.
TEST(EnsembleBitIdentity, OpenMpWorkersMatchOneWorker) {
    ScopedBackend guard(Backend::OpenMP);
    EXPECT_EQ(runMixed(2), runMixed(1));
}

namespace {

// Records the OpenMP thread budget a worker sees inside step().
class OmpProbeScenario final : public Scenario {
public:
    OmpProbeScenario() : Scenario("omp-probe", RunLimits{0.0, 2, 0.0}) {}
    void init() override { m_init = true; }
    bool initialized() const override { return m_init; }
    Real time() const override { return m_steps; }
    int stepCount() const override { return m_steps; }
    Real estimateDt() const override { return 1.0; }
    void advanceOnce(Real) override {
#if defined(EXA_USE_OPENMP)
        threads_seen = omp_get_max_threads();
#endif
        ++m_steps;
    }
    std::int64_t zones() const override { return 1; }
    std::uint64_t stateBytes() const override { return 0; }
    std::uint32_t stateCrc() const override { return 0; }
    std::string summary() const override { return "omp-probe"; }

    int threads_seen = 0;

private:
    bool m_init = false;
    int m_steps = 0;
};

} // namespace

TEST(EnsembleRunner, OpenMpWorkersSplitTheThreadBudget) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    ScopedBackend guard(Backend::OpenMP);
    const int saved = omp_get_max_threads();
    omp_set_num_threads(4);
    for (int workers : {1, 2, 3}) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        EnsembleOptions opt;
        opt.workers = workers;
        EnsembleRunner runner(opt);
        for (int t = 0; t < workers; ++t) runner.add(std::make_unique<OmpProbeScenario>());
        runner.run();
        for (int t = 0; t < workers; ++t) {
            const auto& probe = dynamic_cast<OmpProbeScenario&>(runner.scenario(t));
            EXPECT_EQ(probe.threads_seen, std::max(1, 4 / workers));
        }
    }
    EXPECT_EQ(omp_get_max_threads(), 4);
    omp_set_num_threads(saved);
#endif
}

TEST(EnsembleDeterminism, SimGpuAndDebugForceOneWorker) {
    for (Backend b : {Backend::SimGpu, Backend::Debug}) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        EnsembleOptions opt;
        opt.workers = 4;
        EnsembleRunner runner(opt);
        runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                                   RunLimits{0.0, 1, 0.0}));
        runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                                   RunLimits{0.0, 1, 0.0}));
        auto report = runner.run();
        EXPECT_EQ(report.workers, 1);
    }
}

// --- Work-stealing queue -------------------------------------------------

TEST(WorkStealingQueue, OwnDequeIsFifoStealsComeFromTheBack) {
    WorkStealingQueue q(2);
    q.push(0, 10);
    q.push(0, 11);
    q.push(0, 12);
    int item = -1;
    ASSERT_TRUE(q.pop(0, item));
    EXPECT_EQ(item, 10); // own pops are FIFO
    ASSERT_TRUE(q.pop(1, item));
    EXPECT_EQ(item, 12); // steals come from the victim's back
    EXPECT_EQ(q.steals(), 1);
    ASSERT_TRUE(q.pop(0, item));
    EXPECT_EQ(item, 11);
    EXPECT_FALSE(q.pop(0, item));
    EXPECT_EQ(q.steals(), 1);
}

TEST(WorkStealingQueue, ConcurrentPopsLoseNothing) {
    const int n = 200;
    WorkStealingQueue q(4);
    for (int i = 0; i < n; ++i) q.push(i % 4, i);
    std::atomic<int> popped{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < 4; ++w) {
        pool.emplace_back([&, w] {
            int item = -1;
            while (q.pop(w, item)) popped.fetch_add(1);
        });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(popped.load(), n);
}

// --- Shared-infrastructure accounting ------------------------------------

TEST(TenantAccounting, ArenaStatsAreExactUnderCrossTenantFrees) {
    // Unit-level adversarial pattern: a block allocated under tenant 7 and
    // freed under tenant 9's scope (or no scope) must be credited to 7 —
    // under work stealing a tenant's blocks routinely die on a different
    // worker.
    auto& arena = thePoolArena();
    arena.resetTenantStats();
    void* a = nullptr;
    {
        ArenaTenantScope t7(7);
        a = arena.allocate(1000);
    }
    {
        ArenaTenantScope t9(9);
        arena.deallocate(a);
    }
    const auto s7 = arena.tenantStats(7);
    const auto s9 = arena.tenantStats(9);
    EXPECT_EQ(s7.allocs, 1u);
    EXPECT_EQ(s7.frees, 1u);
    EXPECT_EQ(s7.bytes_in_use, 0u);
    EXPECT_EQ(s7.peak_bytes, s7.bytes_allocated);
    EXPECT_EQ(s9.allocs, 0u);
    EXPECT_EQ(s9.frees, 0u);
    arena.resetTenantStats();
}

TEST(TenantAccounting, ArenaStatsBalanceAcrossThreads) {
    auto& arena = thePoolArena();
    arena.resetTenantStats();
    // Two threads allocate under their own tenant, then free each other's
    // blocks: every byte must still land on its owner, exactly.
    constexpr int kBlocks = 64;
    std::vector<void*> mine(kBlocks), theirs(kBlocks);
    {
        ArenaTenantScope t0(0);
        for (auto& p : mine) p = arena.allocate(512);
    }
    {
        ArenaTenantScope t1(1);
        for (auto& p : theirs) p = arena.allocate(512);
    }
    std::thread a([&] {
        ArenaTenantScope t0(0);
        for (void* p : theirs) arena.deallocate(p);
    });
    std::thread b([&] {
        ArenaTenantScope t1(1);
        for (void* p : mine) arena.deallocate(p);
    });
    a.join();
    b.join();
    for (int t : {0, 1}) {
        const auto s = arena.tenantStats(t);
        EXPECT_EQ(s.allocs, static_cast<std::uint64_t>(kBlocks)) << t;
        EXPECT_EQ(s.frees, static_cast<std::uint64_t>(kBlocks)) << t;
        EXPECT_EQ(s.bytes_in_use, 0u) << t;
    }
    arena.resetTenantStats();
}

TEST(TenantAccounting, EnsembleArenaBytesBalanceAfterTeardown) {
    if (dynamic_cast<PoolArena*>(The_Arena()) == nullptr) {
        GTEST_SKIP() << "tenant accounting requires the pool arena";
    }
    auto& arena = thePoolArena();
    arena.resetTenantStats();
    {
        EnsembleRunner runner;
        runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                                   RunLimits{0.0, 2, 0.0}));
        runner.add(std::make_unique<BubbleScenario>(tinyBubble(),
                                                    RunLimits{0.0, 2, 0.0}));
        auto report = runner.run();
        for (const auto& t : report.tenants) {
            EXPECT_GT(t.arena_peak_bytes, 0u) << t.label;
            EXPECT_GE(t.arena_allocated_bytes, t.arena_peak_bytes) << t.label;
        }
        // States are live while the runner holds the scenarios.
        for (int id : {0, 1}) {
            EXPECT_GT(arena.tenantStats(id).bytes_in_use, 0u) << id;
        }
    }
    // Runner destroyed: every tenant byte must come back, even though the
    // frees ran outside any tenant scope.
    for (int id : {0, 1}) {
        const auto s = arena.tenantStats(id);
        EXPECT_EQ(s.bytes_in_use, 0u) << id;
        EXPECT_EQ(s.allocs, s.frees) << id;
    }
    arena.resetTenantStats();
}

TEST(TenantAccounting, SharedLedgerBucketsTrafficPerTenant) {
    CommLedger ledger;
    EnsembleOptions opt;
    opt.ledger = &ledger;
    EnsembleRunner runner(opt);
    // Multi-box domains, so the halo exchanges actually put bytes on the
    // wire (a single 8^3 box has no neighbors to talk to).
    auto sp = tinySedov();
    sp.max_grid_size = 4;
    auto bp = tinyBubble();
    bp.max_grid_size = 4;
    runner.add(std::make_unique<SedovScenario>(sp, RunLimits{0.0, 2, 0.0}));
    runner.add(std::make_unique<BubbleScenario>(bp, RunLimits{0.0, 2, 0.0}));
    auto report = runner.run();

    std::int64_t tenant_bytes = 0;
    for (const auto& t : report.tenants) {
        EXPECT_GT(t.comm_bytes, 0) << t.label;
        EXPECT_GT(t.comm_messages, 0) << t.label;
        EXPECT_EQ(t.comm_bytes, ledger.tenantBytes(t.label));
        tenant_bytes += t.comm_bytes;
    }
    // Every recorded byte happened inside some tenant's scope.
    EXPECT_EQ(tenant_bytes, ledger.totalBytes());
    const auto names = ledger.tenantNames();
    EXPECT_EQ(names.size(), 2u);
}

TEST(TenantAccounting, PerTenantTimersStayOutOfTheGlobalRegistry) {
    auto& global = TimerRegistry::instance();
    const double global_step_before = global.seconds("ensemble/step");

    EnsembleRunner runner;
    const int id = runner.add(std::make_unique<SedovScenario>(
        tinySedov(), RunLimits{0.0, 3, 0.0}));
    runner.run();

    auto& timers = runner.tenantTimers(id);
    EXPECT_EQ(timers.tag(), "sedov#0");
    EXPECT_EQ(timers.calls("ensemble/step"), 3u);
    EXPECT_EQ(timers.calls("ensemble/init"), 1u);
    EXPECT_GT(timers.seconds("ensemble/step"), 0.0);
    // The tenant's regions did not leak into the process-global registry.
    EXPECT_DOUBLE_EQ(global.seconds("ensemble/step"), global_step_before);
}

TEST(TenantAccounting, ScopedTimerRegistryRedirectsAndRestores) {
    TimerRegistry mine("scoped");
    {
        ScopedTimerRegistry scope(&mine);
        TimerRegion r("unit/region");
    }
    EXPECT_EQ(mine.calls("unit/region"), 1u);
    EXPECT_EQ(&TimerRegistry::current(), &TimerRegistry::instance());
}

TEST(TenantAccounting, LedgerTenantScopeNestsAndRestores) {
    EXPECT_EQ(CommLedger::currentTenant(), "");
    {
        ScopedLedgerTenant outer("a");
        EXPECT_EQ(CommLedger::currentTenant(), "a");
        {
            ScopedLedgerTenant inner("b");
            EXPECT_EQ(CommLedger::currentTenant(), "b");
        }
        EXPECT_EQ(CommLedger::currentTenant(), "a");
    }
    EXPECT_EQ(CommLedger::currentTenant(), "");
}

// --- Report --------------------------------------------------------------

TEST(EnsembleReport, AggregatesThroughputAndLatency) {
    EnsembleRunner runner;
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 2, 0.0}));
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 3, 0.0}));
    auto report = runner.run();
    ASSERT_EQ(report.tenants.size(), 2u);
    EXPECT_EQ(report.tenants[0].steps, 2);
    EXPECT_EQ(report.tenants[1].steps, 3);
    EXPECT_GT(report.wall_seconds, 0.0);
    EXPECT_GT(report.sims_per_hour, 0.0);
    EXPECT_GT(report.zone_steps_per_sec, 0.0);
    EXPECT_GT(report.p50_ms, 0.0);
    EXPECT_GE(report.p99_ms, report.p50_ms);
    EXPECT_EQ(report.tenants[0].zone_steps, 2 * 8 * 8 * 8);
    EXPECT_FALSE(report.table().empty());
    EXPECT_FALSE(report.tenants[0].summary.empty());
}

TEST(EnsembleRunner, RunIsSingleShot) {
    EnsembleRunner runner;
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 1, 0.0}));
    runner.run();
    EXPECT_THROW(runner.run(), std::logic_error);
}

TEST(EnsembleRunner, DistinctGridTenantsNeverEvictEachOther) {
    // The copier cache is process-wide and has no capacity: a plan lives
    // as long as its layouts. Eight tenants on distinct grids, stepped
    // concurrently by four workers, therefore take exactly the misses
    // each takes alone, and every plan dies with its tenant's layouts.
    auto& cache = CopierCache::instance();
    auto tenant = [](int t) {
        castro::SedovParams p = tinySedov();
        p.max_grid_size = t % 2 == 0 ? 8 : 4;
        p.nranks = 1 + t / 2;
        return std::make_unique<SedovScenario>(p, RunLimits{0.0, 2, 0.0});
    };
    const std::size_t resident0 = cache.stats().plans;

    std::uint64_t cold = 0;
    for (int t = 0; t < 8; ++t) {
        const std::uint64_t m0 = cache.stats().misses;
        EnsembleRunner solo;
        solo.add(tenant(t));
        solo.run();
        cold += cache.stats().misses - m0;
    }
    EXPECT_GT(cold, 0u);
    EXPECT_EQ(cache.stats().plans, resident0);

    const std::uint64_t m0 = cache.stats().misses;
    {
        EnsembleOptions opt;
        opt.workers = 4;
        EnsembleRunner runner(opt);
        for (int t = 0; t < 8; ++t) runner.add(tenant(t));
        runner.run();
        EXPECT_EQ(cache.stats().misses - m0, cold);
    }
    // The runner and its tenants are gone, and so is every plan.
    EXPECT_EQ(cache.stats().plans, resident0);
}

TEST(EnsembleRunner, DeviceResidencyTracksLiveTenants) {
    // Pack enough modeled state onto the device and the ensemble reports
    // oversubscription (the Unified-Memory eviction penalty regime).
    ScopedBackend gpu(Backend::SimGpu);
    DeviceModel device;
    device.attach();
    EnsembleOptions opt;
    opt.device = &device;
    EnsembleRunner runner(opt);
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 1, 0.0}));
    auto report = runner.run();
    device.detach();
    // One tiny Sedov does not oversubscribe a 16 GB device...
    EXPECT_FALSE(report.oversubscribed);
    // ...and retired tenants release their residency.
    EXPECT_DOUBLE_EQ(device.residentBytes(), 0.0);
    EXPECT_GT(device.numLaunches(), 0);
}
