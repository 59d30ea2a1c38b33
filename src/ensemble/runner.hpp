#pragma once

#include "comm/ledger.hpp"
#include "core/timer.hpp"
#include "ensemble/registry.hpp"
#include "ensemble/work_queue.hpp"
#include "perf/device_model.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exa::ensemble {

struct EnsembleOptions {
    // Worker threads. 0 = auto: min(hardware threads, tenants), capped at
    // 8. Forced to 1 under Backend::SimGpu and Backend::Debug — SimGpu
    // publishes every launch to the event stream, whose DeviceModel
    // listener counts without a lock, and the debug contract checker is
    // process-global; both serialize launches anyway, so threading them
    // would race for no speedup; the cooperative single-worker mode keeps
    // the deterministic round-robin schedule instead.
    int workers = 0;
    // When set, the runner attaches this ledger for the duration of run()
    // and fills per-tenant comm traffic in the report.
    CommLedger* ledger = nullptr;
    // When set, the runner keeps device->residentBytes() equal to the sum
    // of live (initialized, unfinished) tenants' stateBytes — the Unified
    // Memory oversubscription accounting: pack too many simulations onto
    // one modeled GPU and every kernel pays the eviction-bandwidth
    // penalty. (The device is NOT attached here; callers attach it and
    // select Backend::SimGpu when they want modeled time.)
    DeviceModel* device = nullptr;
    // Steps a worker runs a tenant for before requeueing it — the
    // fairness/throughput knob. 1 (default) interleaves tenants per step:
    // best p50/p99 fairness and finest-grained stealing. Larger quanta
    // keep a tenant's working set hot in cache across consecutive steps,
    // which measurably helps aggregate throughput when tenants are small;
    // <= 0 means run-to-completion. Bit-identity is schedule-independent
    // (tenants share no mutable state), so this only moves wall-clock and
    // latency, never results.
    int quantum_steps = 1;
};

// Per-tenant slice of the final report.
struct TenantReport {
    int id = 0;
    std::string label;    // unique instance label, e.g. "sedov#0"
    std::string scenario; // registry kind
    int steps = 0;
    Real sim_time = 0.0;
    double wall_seconds = 0.0; // init + steps, this tenant only
    std::int64_t zone_steps = 0;
    double p50_ms = 0.0, p99_ms = 0.0; // per-step latency
    std::uint32_t crc = 0;
    std::uint64_t arena_peak_bytes = 0;
    std::uint64_t arena_allocated_bytes = 0;
    std::int64_t comm_bytes = 0; // 0 unless EnsembleOptions::ledger set
    std::int64_t comm_messages = 0;
    std::int64_t mg_vcycles = 0; // multigrid v-cycles (ledger-attributed)
    std::string summary;
};

struct EnsembleReport {
    std::vector<TenantReport> tenants;
    int workers = 0;
    double wall_seconds = 0.0;       // whole-ensemble wall clock
    double sims_per_hour = 0.0;      // completed simulations / hour
    double zone_steps_per_sec = 0.0; // aggregate advance throughput
    double p50_ms = 0.0, p99_ms = 0.0; // per-step latency, all tenants
    std::int64_t steals = 0;           // work-queue steals
    bool oversubscribed = false;       // device residency > capacity

    // Formatted per-tenant table plus the aggregate line.
    std::string table() const;
};

// The ensemble service: N independent simulations multiplexed over shared
// infrastructure (one arena, one ledger, one device model, one timer
// namespace) in a single process. Tenants come from the ScenarioRegistry
// (add by name + config) or are handed in prebuilt; run() schedules them
// step-by-step over a work-stealing worker pool and reports aggregate
// throughput plus exact per-tenant accounting.
//
// Every tenant step (and its init) executes inside that tenant's scopes:
// ArenaTenantScope (byte/peak attribution), ScopedLedgerTenant (comm
// traffic buckets) and ScopedTimerRegistry (a tagged per-tenant
// registry). The scopes are thread-local, so they follow a stolen tenant
// to whichever worker runs it.
class EnsembleRunner {
public:
    explicit EnsembleRunner(EnsembleOptions opt = {});
    ~EnsembleRunner();

    // Add a tenant by registry name. Returns the tenant id (dense, from
    // 0); the instance label is "<name>#<id>".
    int add(const std::string& scenario, const ScenarioConfig& cfg = {});
    // Add a prebuilt scenario (label defaults to "<name()>#<id>").
    int add(std::unique_ptr<Scenario> s, std::string label = "");

    int numTenants() const { return static_cast<int>(m_tenants.size()); }
    Scenario& scenario(int id) { return *m_tenants[id].scenario; }
    const std::string& label(int id) const { return m_tenants[id].label; }
    // The tenant's tagged timer registry (regions recorded during its
    // steps land here, not in TimerRegistry::instance()).
    TimerRegistry& tenantTimers(int id) { return *m_tenants[id].timers; }

    // Run every tenant to completion. Callable once.
    EnsembleReport run();

private:
    struct Tenant {
        std::unique_ptr<Scenario> scenario;
        std::string label;
        std::unique_ptr<TimerRegistry> timers;
        std::vector<double> step_ms;
        double wall = 0.0;
        std::int64_t zone_steps = 0;
        std::uint64_t state_bytes = 0;
        std::uint32_t crc = 0;
        std::string summary;
    };

    int resolveWorkers() const;
    // One scheduling quantum for tenant `id` on `worker`: enter the
    // tenant's scopes, init if needed, take one step, requeue or retire.
    void stepTenant(int id, WorkStealingQueue& queue, int worker);
    void addResident(double delta);

    EnsembleOptions m_opt;
    std::vector<Tenant> m_tenants;
    std::atomic<int> m_remaining{0};
    std::mutex m_resident_mutex;
    double m_resident_bytes = 0.0;
    bool m_ran = false;
};

} // namespace exa::ensemble
