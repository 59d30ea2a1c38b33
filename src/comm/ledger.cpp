#include "comm/ledger.hpp"

#include <algorithm>

namespace exa {

namespace {
// Thread-local so ensemble workers each carry their own tenant tag; a
// worker that steals tenant A's step tags A's records no matter which
// ledger is attached.
thread_local std::string t_ledger_tenant;
} // namespace

const std::string& CommLedger::currentTenant() { return t_ledger_tenant; }
void CommLedger::setCurrentTenant(std::string tenant) {
    t_ledger_tenant = std::move(tenant);
}

void CommLedger::attach() {
    if (m_sub) return;
    m_sub = EventSubscription([this](const Event& e) {
        if (const auto* r = std::get_if<MessageRecord>(&e)) record(*r);
        else if (const auto* h = std::get_if<HaloEvent>(&e)) recordHalo(*h);
        else if (const auto* b = std::get_if<RebalanceEvent>(&e)) recordRebalance(*b);
        else if (const auto* c = std::get_if<ResilienceEvent>(&e)) recordResilience(*c);
        else if (const auto* m = std::get_if<MgEvent>(&e)) recordMg(*m);
    });
}

void CommLedger::detach() { m_sub.reset(); }

void CommLedger::record(const MessageRecord& r) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto& e = m_edges[{r.src_rank, r.dst_rank}];
    e.bytes += r.bytes;
    ++e.msgs;
    m_total_bytes += r.bytes;
    ++m_total_msgs;
    m_tag_bytes[r.tag] += r.bytes;
    if (!t_ledger_tenant.empty()) {
        auto& t = m_tenants[t_ledger_tenant];
        t.bytes += r.bytes;
        ++t.msgs;
    }
    // finish() delivers its MessageRecords before it fires the Finished
    // event, so messages belonging to a split-phase exchange arrive while
    // that exchange is still counted in flight.
    if (m_halos_in_flight > 0) ++m_split_phase_msgs;
}

void CommLedger::recordHalo(const HaloEvent& e) {
    std::lock_guard<std::mutex> lk(m_mutex);
    if (e.phase == HaloPhase::Posted) {
        ++m_halos_posted;
        ++m_halos_in_flight;
        m_max_halos_in_flight = std::max(m_max_halos_in_flight, m_halos_in_flight);
    } else if (m_halos_in_flight > 0) {
        --m_halos_in_flight;
    }
}

void CommLedger::recordRebalance(const RebalanceEvent& e) {
    std::lock_guard<std::mutex> lk(m_mutex);
    ++m_rebalances;
    m_migration_bytes += e.bytes;
    m_migration_boxes += e.boxes_moved;
}

void CommLedger::recordResilience(const ResilienceEvent& e) {
    m_checkpoints.fetch_add(e.checkpoints, std::memory_order_relaxed);
    m_checkpoint_bytes.fetch_add(e.checkpoint_bytes, std::memory_order_relaxed);
    m_ranks_recovered.fetch_add(e.ranks_recovered, std::memory_order_relaxed);
    m_replay_steps.fetch_add(e.replay_steps, std::memory_order_relaxed);
    m_recovery_bytes.fetch_add(e.recovery_bytes, std::memory_order_relaxed);
}

void CommLedger::recordMg(const MgEvent& e) {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_mg_fmg_cycles += e.fmg_cycles;
    m_mg_vcycles += e.vcycles;
    m_mg_sweeps += e.sweeps;
    m_mg_agg_copies += e.agg_copies;
    m_mg_agg_bytes += e.agg_bytes;
    if (!t_ledger_tenant.empty()) m_tenant_mg[t_ledger_tenant] += e.vcycles;
}

void CommLedger::reset() {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_edges.clear();
    m_tag_bytes.clear();
    m_tenants.clear();
    m_total_bytes = 0;
    m_total_msgs = 0;
    m_halos_posted = 0;
    m_halos_in_flight = 0;
    m_max_halos_in_flight = 0;
    m_split_phase_msgs = 0;
    m_rebalances = 0;
    m_migration_bytes = 0;
    m_migration_boxes = 0;
    m_mg_fmg_cycles = 0;
    m_mg_vcycles = 0;
    m_mg_sweeps = 0;
    m_mg_agg_copies = 0;
    m_mg_agg_bytes = 0;
    m_tenant_mg.clear();
    m_checkpoints.store(0);
    m_checkpoint_bytes.store(0);
    m_ranks_recovered.store(0);
    m_replay_steps.store(0);
    m_recovery_bytes.store(0);
}

std::int64_t CommLedger::totalBytes() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_total_bytes;
}

std::int64_t CommLedger::totalMessages() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_total_msgs;
}

std::int64_t CommLedger::bytesWithTag(const std::string& tag) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_tag_bytes.find(tag);
    return it == m_tag_bytes.end() ? 0 : it->second;
}

std::int64_t CommLedger::tenantBytes(const std::string& tenant) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_tenants.find(tenant);
    return it == m_tenants.end() ? 0 : it->second.bytes;
}

std::int64_t CommLedger::tenantMessages(const std::string& tenant) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_tenants.find(tenant);
    return it == m_tenants.end() ? 0 : it->second.msgs;
}

std::vector<std::string> CommLedger::tenantNames() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::vector<std::string> names;
    names.reserve(m_tenants.size());
    for (const auto& [name, t] : m_tenants) names.push_back(name);
    return names;
}

std::int64_t CommLedger::halosPosted() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_halos_posted;
}
std::int64_t CommLedger::halosInFlight() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_halos_in_flight;
}
std::int64_t CommLedger::maxHalosInFlight() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_max_halos_in_flight;
}
std::int64_t CommLedger::splitPhaseMessages() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_split_phase_msgs;
}
std::int64_t CommLedger::rebalancesPerformed() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_rebalances;
}
std::int64_t CommLedger::migrationBytes() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_migration_bytes;
}
std::int64_t CommLedger::migrationBoxesMoved() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_migration_boxes;
}
std::int64_t CommLedger::mgFmgCycles() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_mg_fmg_cycles;
}
std::int64_t CommLedger::mgVcycles() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_mg_vcycles;
}
std::int64_t CommLedger::mgSweeps() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_mg_sweeps;
}
std::int64_t CommLedger::mgAggCopies() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_mg_agg_copies;
}
std::int64_t CommLedger::mgAggBytes() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_mg_agg_bytes;
}
std::int64_t CommLedger::tenantMgVcycles(const std::string& tenant) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_tenant_mg.find(tenant);
    return it == m_tenant_mg.end() ? 0 : it->second;
}

std::int64_t CommLedger::offNodeBytes(const RankLayout& layout) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::int64_t b = 0;
    for (const auto& [key, e] : m_edges) {
        if (!layout.sameNode(key.first, key.second)) b += e.bytes;
    }
    return b;
}

double CommLedger::phaseTime(const RankLayout& layout, const NetworkModel& net) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    // Serialized per-rank cost: each rank pays for its sends and receives.
    std::vector<double> rank_time(layout.numRanks(), 0.0);
    for (const auto& [key, e] : m_edges) {
        const auto [src, dst] = key;
        if (src >= layout.numRanks() || dst >= layout.numRanks()) continue;
        // One aggregated message per (src,dst) pair per phase: real codes
        // pack all box intersections for a neighbor into one buffer, so
        // latency is paid once per neighbor, not once per box pair.
        const double t = net.p2pTime(e.bytes, layout.sameNode(src, dst), layout.nodes);
        rank_time[src] += t;
        rank_time[dst] += t;
    }
    return rank_time.empty() ? 0.0
                             : *std::max_element(rank_time.begin(), rank_time.end());
}

} // namespace exa
