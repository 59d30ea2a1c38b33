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

// Run `scenario` alone through an N=1 ensemble and return its CRC.
std::uint32_t runSolo(std::unique_ptr<Scenario> scenario) {
    EnsembleRunner runner;
    const int id = runner.add(std::move(scenario));
    auto report = runner.run();
    return report.tenants[static_cast<std::size_t>(id)].crc;
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
// also pins the wrapper's dt formula to the hand-written one.

TEST(EnsembleBitIdentity, SedovMatchesDirectDriverOnAllBackends) {
    auto net = makeIgnitionSimple();
    const auto p = tinySedov();
    for (Backend b : kBackends) {
        SCOPED_TRACE(backendName(b));
        ScopedBackend guard(b);
        auto direct = p.build(net);
        for (int s = 0; s < 2; ++s) direct->step(direct->estimateDt());
        const auto want = stateCrc(direct->state());

        const auto got = runSolo(std::make_unique<SedovScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got, want);
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
        const auto want = stateCrc(direct->state());

        const auto got = runSolo(std::make_unique<BubbleScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got, want);
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
        std::uint32_t want = 0;
        for (int lev = 0; lev <= direct->finestLevel(); ++lev)
            want = stateCrc(direct->state(lev), want);

        const auto got = runSolo(std::make_unique<AmrBlastScenario>(
            p, RunLimits{0.0, 2, 0.0}, makeIgnitionSimple()));
        EXPECT_EQ(got, want);
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
        const auto want = stateCrc(direct.castro->state());

        const auto got = runSolo(std::make_unique<WdCollisionScenario>(
            p, RunLimits{0.0, 2, 0.0}));
        EXPECT_EQ(got, want);
    }
}

// --- Deprecated forwarders ----------------------------------------------
//
// The [[deprecated]] shims must stay exact aliases of the canonical
// build() API for out-of-tree users. In-tree they are a -Werror, so this
// block opts out locally.

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(DeprecatedForwarders, ForwardersMatchBuild) {
    auto net = makeIgnitionSimple();
    {
        const auto p = tinySedov();
        auto a = castro::makeSedov(p, net);
        auto b = p.build(net);
        a->step(a->estimateDt());
        b->step(b->estimateDt());
        EXPECT_EQ(stateCrc(a->state()), stateCrc(b->state()));
    }
    {
        const auto p = tinyBubble();
        auto a = maestro::makeReactingBubble(p, net);
        auto b = p.build(net);
        a->step(a->estimateDt());
        b->step(b->estimateDt());
        EXPECT_EQ(stateCrc(a->state()), stateCrc(b->state()));
    }
    {
        const auto p = tinyWd();
        auto a = castro::makeWdCollision(p);
        auto b = p.build();
        a.castro->step(a.castro->estimateDt());
        b.castro->step(b.castro->estimateDt());
        EXPECT_EQ(stateCrc(a.castro->state()), stateCrc(b.castro->state()));
        auto c = castro::makeWdCollision(p, *a.network);
        c.castro->step(c.castro->estimateDt());
        EXPECT_EQ(stateCrc(c.castro->state()), stateCrc(b.castro->state()));
    }
}
#pragma GCC diagnostic pop

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
                                                      RunLimits{0.0, 2, 0.0})));
    EXPECT_EQ(once.at("bubble#1"),
              runSolo(std::make_unique<BubbleScenario>(
                  tinyBubble(), RunLimits{0.0, 2, 0.0})));
    EXPECT_EQ(once.at("amr-blast#2"),
              runSolo(std::make_unique<AmrBlastScenario>(
                  tinyAmrBlast(), RunLimits{0.0, 2, 0.0})));
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

TEST(TenantAccounting, CopierCacheScalesWithLiveTenants) {
    // The copier cache is process-wide; without tenant-aware sizing, N
    // co-resident tenants with distinct grids evict each other's plans
    // every scheduling round. Save and restore the cache's knobs — other
    // tests share the singleton.
    auto& cache = CopierCache::instance();
    const std::size_t saved_base = cache.baseCapacity();
    const int saved_tenants = cache.liveTenants();
    const Periodicity none;

    // 8 "tenants", one distinct grid each; every FillBoundary plan is one
    // LRU entry, so a base capacity of 4 cannot hold a round of 8.
    std::vector<BoxArray> grids;
    std::vector<DistributionMapping> dms;
    for (int t = 0; t < 8; ++t) {
        Box dom({0, 0, 0}, {7, 7, 7 + t});
        BoxArray ba(dom);
        ba.maxSize(4);
        dms.emplace_back(ba, 2);
        grids.push_back(ba);
    }
    auto round = [&] {
        for (int t = 0; t < 8; ++t) cache.fillBoundary(grids[t], dms[t], 1, none);
    };
    auto misses = [&] { return cache.stats().misses; };
    auto hits = [&] { return cache.stats().hits; };

    cache.noteLiveTenants(0);
    cache.setCapacity(4);
    cache.clear();
    EXPECT_EQ(cache.capacity(), 4u);
    round(); // populate (8 misses, 4 evictions)
    const auto h0 = hits();
    round(); // the LRU held only the last 4: every lookup misses again
    EXPECT_EQ(hits(), h0);

    // With the live-tenant count reported, capacity scales to
    // max(base, tenants * per-tenant) and a full round fits.
    cache.noteLiveTenants(8);
    EXPECT_EQ(cache.capacity(),
              std::max<std::size_t>(4, 8 * cache.perTenantCapacity()));
    round(); // repopulate
    const auto m0 = misses();
    round(); // all hits: no thrash
    EXPECT_EQ(misses(), m0);

    // Tenants retiring shrinks the cache back down.
    cache.noteLiveTenants(0);
    EXPECT_EQ(cache.capacity(), 4u);
    EXPECT_LE(cache.stats().plans, 4u);

    cache.setCapacity(saved_base);
    cache.noteLiveTenants(saved_tenants);
    cache.clear();
}

TEST(EnsembleRunner, LiveTenantCountReachesCopierCache) {
    // The runner reports inits and retirements to the process-wide cache.
    auto& cache = CopierCache::instance();
    cache.noteLiveTenants(0);
    EnsembleRunner runner;
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 1, 0.0}));
    runner.add(std::make_unique<SedovScenario>(tinySedov(),
                                               RunLimits{0.0, 2, 0.0}));
    runner.run();
    // Every tenant retired: the live count is back to zero.
    EXPECT_EQ(cache.liveTenants(), 0);
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
