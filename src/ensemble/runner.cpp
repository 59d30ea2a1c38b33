#include "ensemble/runner.hpp"

#include "core/arena.hpp"
#include "core/executor.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

namespace exa::ensemble {

namespace {

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

} // namespace

EnsembleRunner::EnsembleRunner(EnsembleOptions opt) : m_opt(opt) {}
EnsembleRunner::~EnsembleRunner() = default;

int EnsembleRunner::add(const std::string& scenario, const ScenarioConfig& cfg) {
    return add(makeScenarioByName(scenario, cfg));
}

int EnsembleRunner::add(std::unique_ptr<Scenario> s, std::string label) {
    const int id = numTenants();
    Tenant t;
    t.scenario = std::move(s);
    t.label = label.empty() ? t.scenario->name() + "#" + std::to_string(id)
                            : std::move(label);
    t.timers = std::make_unique<TimerRegistry>(t.label);
    m_tenants.push_back(std::move(t));
    return id;
}

int EnsembleRunner::resolveWorkers() const {
    // SimGpu's DeviceModel listener counts launches without a lock and the
    // debug contract checker is process-global; both backends serialize
    // launches, so correctness (and the deterministic round-robin
    // schedule) wants exactly one worker regardless of the requested
    // count.
    const Backend b = ExecConfig::backend();
    if (b == Backend::SimGpu || b == Backend::Debug) return 1;
    if (m_opt.workers > 0) return m_opt.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    const int cap = std::min(static_cast<int>(hw != 0 ? hw : 1), numTenants());
    return std::max(1, std::min(cap, 8));
}

void EnsembleRunner::addResident(double delta) {
    std::lock_guard<std::mutex> lk(m_resident_mutex);
    m_resident_bytes = std::max(0.0, m_resident_bytes + delta);
    m_opt.device->setResidentBytes(m_resident_bytes);
}

void EnsembleRunner::stepTenant(int id, WorkStealingQueue& queue, int worker) {
    Tenant& t = m_tenants[static_cast<std::size_t>(id)];
    // The tenant's scopes: thread-local, so they follow the tenant to
    // whichever worker pulled it from the queue.
    ArenaTenantScope arena_scope(id);
    ScopedLedgerTenant ledger_scope(t.label);
    ScopedTimerRegistry timer_scope(t.timers.get());

    if (!t.scenario->initialized()) {
        WallTimer w;
        {
            TimerRegion tr("ensemble/init");
            t.scenario->init();
        }
        t.wall += w.seconds();
        t.state_bytes = t.scenario->stateBytes();
        if (m_opt.device != nullptr)
            addResident(static_cast<double>(t.state_bytes));
    }

    // Run the tenant for its quantum (<= 0: to completion), keeping its
    // working set hot across consecutive steps; per-step latency is still
    // sampled individually.
    const int quantum = m_opt.quantum_steps;
    for (int q = 0; (quantum <= 0 || q < quantum) && !t.scenario->finished();
         ++q) {
        WallTimer w;
        {
            TimerRegion tr("ensemble/step");
            t.scenario->advanceOnce();
        }
        const double sec = w.seconds();
        t.step_ms.push_back(sec * 1.0e3);
        t.wall += sec;
        t.zone_steps += t.scenario->zones();
    }

    if (t.scenario->finished()) {
        t.crc = t.scenario->stateCrc();
        t.summary = t.scenario->summary();
        // Retired tenants release their modeled residency: the service
        // keeps only live simulations on the device.
        if (m_opt.device != nullptr)
            addResident(-static_cast<double>(t.state_bytes));
        m_remaining.fetch_sub(1, std::memory_order_acq_rel);
    } else {
        queue.push(worker, id);
    }
}

EnsembleReport EnsembleRunner::run() {
    if (m_ran)
        throw std::logic_error("EnsembleRunner::run() may only be called once");
    m_ran = true;

    EnsembleReport report;
    const int nworkers = numTenants() == 0 ? 1 : resolveWorkers();
    report.workers = nworkers;
    if (numTenants() == 0) return report;

    WorkStealingQueue queue(nworkers);
    for (int id = 0; id < numTenants(); ++id) queue.push(id % nworkers, id);
    m_remaining.store(numTenants(), std::memory_order_release);

    if (m_opt.ledger != nullptr) m_opt.ledger->attach();
    if (m_opt.device != nullptr) {
        std::lock_guard<std::mutex> lk(m_resident_mutex);
        m_resident_bytes = 0.0;
        m_opt.device->setResidentBytes(0.0);
    }

    // Under OpenMP every worker forks its own teams; split the thread
    // budget between them so workers x team size stays within it.
#if defined(EXA_USE_OPENMP)
    const int team_threads = std::max(1, omp_get_max_threads() / nworkers);
#endif

    WallTimer wall;
    auto worker_fn = [&](int w) {
#if defined(EXA_USE_OPENMP)
        if (ExecConfig::backend() == Backend::OpenMP) omp_set_num_threads(team_threads);
#endif
        int id = -1;
        while (m_remaining.load(std::memory_order_acquire) > 0) {
            if (queue.pop(w, id)) {
                stepTenant(id, queue, w);
            } else {
                // Empty deques but unfinished tenants: another worker is
                // mid-step and will requeue; don't spin hot.
                std::this_thread::yield();
            }
        }
    };
    if (nworkers == 1) {
        worker_fn(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(nworkers));
        for (int w = 0; w < nworkers; ++w) pool.emplace_back(worker_fn, w);
        for (auto& th : pool) th.join();
    }
    report.wall_seconds = wall.seconds();

    if (m_opt.ledger != nullptr) m_opt.ledger->detach();
    if (m_opt.device != nullptr)
        report.oversubscribed = m_opt.device->oversubscribed();

    auto* pool_arena = dynamic_cast<PoolArena*>(The_Arena());
    std::vector<double> all_ms;
    std::int64_t zone_steps = 0;
    for (int id = 0; id < numTenants(); ++id) {
        Tenant& t = m_tenants[static_cast<std::size_t>(id)];
        TenantReport tr;
        tr.id = id;
        tr.label = t.label;
        tr.scenario = t.scenario->name();
        tr.steps = t.scenario->stepCount();
        tr.sim_time = t.scenario->time();
        tr.wall_seconds = t.wall;
        tr.zone_steps = t.zone_steps;
        tr.p50_ms = percentile(t.step_ms, 0.50);
        tr.p99_ms = percentile(t.step_ms, 0.99);
        tr.crc = t.crc;
        tr.summary = t.summary;
        if (pool_arena != nullptr) {
            const auto as = pool_arena->tenantStats(id);
            tr.arena_peak_bytes = as.peak_bytes;
            tr.arena_allocated_bytes = as.bytes_allocated;
        }
        if (m_opt.ledger != nullptr) {
            tr.comm_bytes = m_opt.ledger->tenantBytes(t.label);
            tr.comm_messages = m_opt.ledger->tenantMessages(t.label);
            tr.mg_vcycles = m_opt.ledger->tenantMgVcycles(t.label);
        }
        all_ms.insert(all_ms.end(), t.step_ms.begin(), t.step_ms.end());
        zone_steps += t.zone_steps;
        report.tenants.push_back(std::move(tr));
    }
    report.steals = queue.steals();
    report.p50_ms = percentile(all_ms, 0.50);
    report.p99_ms = percentile(all_ms, 0.99);
    if (report.wall_seconds > 0.0) {
        report.sims_per_hour =
            3600.0 * static_cast<double>(numTenants()) / report.wall_seconds;
        report.zone_steps_per_sec =
            static_cast<double>(zone_steps) / report.wall_seconds;
    }
    return report;
}

std::string EnsembleReport::table() const {
    std::ostringstream os;
    os << std::left << std::setw(18) << "tenant" << std::right << std::setw(7)
       << "steps" << std::setw(12) << "sim t" << std::setw(10) << "wall s"
       << std::setw(13) << "zone-steps" << std::setw(10) << "p50 ms"
       << std::setw(10) << "p99 ms" << std::setw(11) << "peak MiB"
       << std::setw(12) << "crc" << '\n';
    for (const auto& t : tenants) {
        os << std::left << std::setw(18) << t.label << std::right << std::setw(7)
           << t.steps << std::setw(12) << std::scientific
           << std::setprecision(3) << t.sim_time << std::fixed
           << std::setw(10) << std::setprecision(3) << t.wall_seconds
           << std::setw(13) << t.zone_steps << std::setw(10)
           << std::setprecision(2) << t.p50_ms << std::setw(10) << t.p99_ms
           << std::setw(11) << std::setprecision(1)
           << static_cast<double>(t.arena_peak_bytes) / (1024.0 * 1024.0)
           << std::setw(12) << std::hex << t.crc << std::dec << '\n';
    }
    os << std::fixed << std::setprecision(2);
    os << "ensemble: " << tenants.size() << " sims, " << workers
       << " worker(s), " << wall_seconds << " s wall, "
       << std::setprecision(1) << sims_per_hour << " sims/h, "
       << std::setprecision(0) << zone_steps_per_sec << " zone-steps/s, p50 "
       << std::setprecision(2) << p50_ms << " ms, p99 " << p99_ms << " ms, "
       << steals << " steal(s)" << (oversubscribed ? ", OVERSUBSCRIBED" : "")
       << '\n';
    return os.str();
}

} // namespace exa::ensemble
