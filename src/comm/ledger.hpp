#pragma once

#include "comm/layout.hpp"
#include "comm/network.hpp"
#include "core/events.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace exa {

// Collects the MessageRecords emitted by the mesh layer (FillBoundary,
// ParallelCopy) and prices them with a NetworkModel. The accounting is
// bulk-synchronous: within one communication phase every rank sends and
// receives concurrently, so phase time = max over ranks of that rank's
// serialized send+recv cost.
//
// Instance-based with per-tenant scoping: a ledger is an ordinary object
// that attach() subscribes to the event stream (core/events.hpp), next
// to any other listeners. When one
// process multiplexes many simulations, the scheduler brackets each
// tenant's work with ScopedLedgerTenant; records arriving inside the
// scope are additionally bucketed under that tenant's tag, so one shared
// ledger can answer "whose bytes were these?" per tenant. The tenant tag
// is thread-local (workers carry their tenant through steals) and every
// record/read path takes the ledger mutex, so counters are exact under a
// multi-threaded scheduler.
class CommLedger {
public:
    // Subscribe this ledger to the event stream / drop the subscription.
    // Both are idempotent: attaching an attached ledger records each event
    // once, and detaching a detached one does nothing. The destructor
    // detaches.
    void attach();
    void detach();

    void record(const MessageRecord& r);
    void recordHalo(const HaloEvent& e);
    void recordRebalance(const RebalanceEvent& e);
    void recordResilience(const ResilienceEvent& e);
    void recordMg(const MgEvent& e);
    void reset();

    std::int64_t totalBytes() const;
    std::int64_t totalMessages() const;
    std::int64_t bytesWithTag(const std::string& tag) const;

    // --- per-tenant scoping ------------------------------------------------
    // The calling thread's current tenant tag ("" = untagged; not
    // bucketed). Set via ScopedLedgerTenant, below.
    static const std::string& currentTenant();
    static void setCurrentTenant(std::string tenant);

    // Traffic recorded while a tenant scope was active on the recording
    // thread. Unknown tenants read as zero.
    std::int64_t tenantBytes(const std::string& tenant) const;
    std::int64_t tenantMessages(const std::string& tenant) const;
    std::vector<std::string> tenantNames() const;

    // Split-phase exchange tracking (HaloEvent): how many handles
    // were posted, how many are currently between post and finish, the
    // high-water mark of concurrent in-flight exchanges, and how many
    // MessageRecords were delivered by a finish() (i.e. overlapped with
    // interior compute rather than blocking the step).
    std::int64_t halosPosted() const;
    std::int64_t halosInFlight() const;
    std::int64_t maxHalosInFlight() const;
    std::int64_t splitPhaseMessages() const;

    // Load-balancing traffic (RebalanceEvent): how many live-state
    // migrations the Rebalancer performed and the off-rank payload they
    // moved. The same bytes also appear in bytesWithTag("rebalance") via
    // the per-message records; the event-level counters survive even when
    // a caller filters tags.
    std::int64_t rebalancesPerformed() const;
    std::int64_t migrationBytes() const;
    std::int64_t migrationBoxesMoved() const;

    // Resilience accounting (ResilienceEvent). Checkpoint commits
    // fire on the async checkpointer's drain thread, so these counters are
    // atomic — they predate the ledger mutex and stay lock-free.
    std::int64_t checkpointsWritten() const { return m_checkpoints.load(); }
    std::int64_t checkpointBytes() const { return m_checkpoint_bytes.load(); }
    std::int64_t ranksRecovered() const { return m_ranks_recovered.load(); }
    std::int64_t recoveryReplaySteps() const { return m_replay_steps.load(); }
    std::int64_t recoveryBytes() const { return m_recovery_bytes.load(); }

    // MG solve accounting (MgEvent): FMG/V-cycle and smoother sweep
    // counts from the Poisson solver (gravity and projection), plus the
    // coarse-level rank aggregation's staged ParallelCopies and their
    // off-rank payload.
    // V-cycles are also bucketed per tenant (like bytes/messages), so an
    // ensemble can answer "whose solves were these?".
    std::int64_t mgFmgCycles() const;
    std::int64_t mgVcycles() const;
    std::int64_t mgSweeps() const;
    std::int64_t mgAggCopies() const;
    std::int64_t mgAggBytes() const;
    std::int64_t tenantMgVcycles(const std::string& tenant) const;

    // Bytes that would cross the node boundary under the given layout.
    std::int64_t offNodeBytes(const RankLayout& layout) const;

    // Modeled wall time for all recorded messages treated as one bulk-
    // synchronous phase under the given layout and network model.
    double phaseTime(const RankLayout& layout, const NetworkModel& net) const;

private:
    struct Edge {
        std::int64_t bytes = 0;
        std::int64_t msgs = 0;
    };
    mutable std::mutex m_mutex;
    std::map<std::pair<int, int>, Edge> m_edges; // (src,dst) -> totals
    std::map<std::string, std::int64_t> m_tag_bytes;
    std::map<std::string, Edge> m_tenants; // tenant tag -> totals
    std::int64_t m_total_bytes = 0;
    std::int64_t m_total_msgs = 0;
    std::int64_t m_halos_posted = 0;
    std::int64_t m_halos_in_flight = 0;
    std::int64_t m_max_halos_in_flight = 0;
    std::int64_t m_split_phase_msgs = 0;
    std::int64_t m_rebalances = 0;
    std::int64_t m_migration_bytes = 0;
    std::int64_t m_migration_boxes = 0;
    std::int64_t m_mg_fmg_cycles = 0;
    std::int64_t m_mg_vcycles = 0;
    std::int64_t m_mg_sweeps = 0;
    std::int64_t m_mg_agg_copies = 0;
    std::int64_t m_mg_agg_bytes = 0;
    std::map<std::string, std::int64_t> m_tenant_mg; // tenant -> v-cycles
    std::atomic<std::int64_t> m_checkpoints{0};
    std::atomic<std::int64_t> m_checkpoint_bytes{0};
    std::atomic<std::int64_t> m_ranks_recovered{0};
    std::atomic<std::int64_t> m_replay_steps{0};
    std::atomic<std::int64_t> m_recovery_bytes{0};
    // Last member, so it unsubscribes before the counters are destroyed.
    EventSubscription m_sub;
};

// RAII tenant tag for ledger records made by this thread: the scheduler
// brackets each tenant's step so one shared attached ledger buckets
// traffic per simulation. Nests; restores the previous tag on exit.
class ScopedLedgerTenant {
public:
    explicit ScopedLedgerTenant(std::string tenant)
        : m_saved(CommLedger::currentTenant()) {
        CommLedger::setCurrentTenant(std::move(tenant));
    }
    ~ScopedLedgerTenant() { CommLedger::setCurrentTenant(std::move(m_saved)); }
    ScopedLedgerTenant(const ScopedLedgerTenant&) = delete;
    ScopedLedgerTenant& operator=(const ScopedLedgerTenant&) = delete;

private:
    std::string m_saved;
};

} // namespace exa
