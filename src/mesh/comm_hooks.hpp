#pragma once

#include <cstdint>
#include <functional>

namespace exa {

// One message that would be an MPI send/recv pair in a distributed run.
// The mesh layer reports these from the *same* intersection logic that
// performs the actual (in-process) data motion, so message counts and
// sizes are exact for the given BoxArray + DistributionMapping — only the
// network's time-per-byte is modeled (in src/comm).
struct MessageRecord {
    int src_rank = 0;
    int dst_rank = 0;
    std::int64_t bytes = 0;
    const char* tag = ""; // e.g. "fillboundary", "parallelcopy"
};

using MessageHook = std::function<void(const MessageRecord&)>;

// Lifecycle of one split-phase halo exchange (HaloHandle). Posted fires
// when FillBoundary_nowait/ParallelCopy_nowait stages the plan's pack
// work; Finished fires after finish() has delivered every item and
// reported its MessageRecords. The ledger uses the pair to track how many
// exchanges are in flight — the overlap the async step loop is buying.
enum class HaloPhase { Posted, Finished };

struct HaloEvent {
    HaloPhase phase = HaloPhase::Posted;
    const char* tag = "";     // same tag as the MessageRecords it brackets
    std::int64_t items = 0;   // plan items in the exchange
    std::int64_t bytes = 0;   // off-rank payload bytes of the plan
};

using HaloHook = std::function<void(const HaloEvent&)>;

// One live-state migration performed by the Rebalancer: every registered
// MultiFab on the level was redistributed from the old mapping to the
// new cost-weighted one. The bytes are the off-rank valid-region payload
// summed over all migrated fabs — the same quantity the per-message
// MessageRecords (tag "rebalance") report, bracketed into one event so
// the ledger can count rebalances and attribute migration traffic.
struct RebalanceEvent {
    int level = 0;
    std::int64_t boxes_moved = 0; // box ownership changes, summed over fabs
    std::int64_t bytes = 0;       // off-rank migration payload
    double imbalance_before = 1.0;
    double imbalance_after = 1.0;
};

using RebalanceHook = std::function<void(const RebalanceEvent&)>;

// Resilience accounting deltas from the supervisor/checkpointer: committed
// checkpoints and their payload bytes, ranks recovered by shrink recovery,
// replayed steps, and the bytes re-read from disk during localized
// restore. Fired with partial deltas as events happen (a checkpoint commit
// fires {1, bytes, 0, 0, 0}); the ledger accumulates. The checkpoint
// commit fires on the *drain thread*, so the receiving hook must be
// thread-safe (CommLedger keeps these counters atomic).
struct ResilienceEvent {
    std::int64_t checkpoints = 0;
    std::int64_t checkpoint_bytes = 0;
    std::int64_t ranks_recovered = 0;
    std::int64_t replay_steps = 0;
    std::int64_t recovery_bytes = 0;
};

using ResilienceHook = std::function<void(const ResilienceEvent&)>;

// MG solve accounting deltas, fired once per solve by the composite-grid
// FMG Poisson solver (Castro gravity and the MAESTRO projection):
// cycle/sweep counts plus the coarse-level rank-aggregation traffic
// (staged ParallelCopies between the distributed fine layout and the
// few-rank aggregated coarse layout, and their off-rank payload bytes).
struct MgEvent {
    std::int64_t fmg_cycles = 0;
    std::int64_t vcycles = 0;
    std::int64_t sweeps = 0;
    std::int64_t agg_copies = 0;
    std::int64_t agg_bytes = 0;
};

using MgHook = std::function<void(const MgEvent&)>;

// Process-global sink for message records (mirrors ExecConfig's launch
// hook). Registered by the comm/perf layer; cheap no-op when absent.
class CommHooks {
public:
    static void setMessageHook(MessageHook h);
    static void clearMessageHook();
    static void notify(const MessageRecord& r);
    static bool active();

    // Split-phase halo lifecycle events (posted / finished).
    static void setHaloHook(HaloHook h);
    static void clearHaloHook();
    static void notifyHalo(const HaloEvent& e);
    static bool haloActive();

    // Load-balancing migration events (one per performed rebalance).
    static void setRebalanceHook(RebalanceHook h);
    static void clearRebalanceHook();
    static void notifyRebalance(const RebalanceEvent& e);
    static bool rebalanceActive();

    // Resilience events (checkpoint commits, rank recoveries). May fire
    // from the checkpoint drain thread; set/clear only while no run is in
    // progress.
    static void setResilienceHook(ResilienceHook h);
    static void clearResilienceHook();
    static void notifyResilience(const ResilienceEvent& e);
    static bool resilienceActive();

    // MG solve counters (one event per completed solve).
    static void setMgHook(MgHook h);
    static void clearMgHook();
    static void notifyMg(const MgEvent& e);
    static bool mgActive();
};

} // namespace exa
