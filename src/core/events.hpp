#pragma once

// The process's one event stream. Every accounting event — a kernel
// launch under Backend::SimGpu, an off-rank message, a split-phase halo
// post/finish, a rebalance, a checkpoint or recovery, an MG solve — is
// published here as one `Event`, and every live EventSubscription sees
// it. Listeners (DeviceModel, CommLedger, tests, benches) pick the
// alternatives they care about with std::get_if and ignore the rest, so
// any number of them can listen at once.
//
// Threading contract: publish() reads the subscriber list without a lock
// and may run on any number of threads at once (OpenMP ensemble workers,
// the checkpoint drain thread); a listener that can be reached from more
// than one thread must be thread-safe itself. Subscribing and
// unsubscribing mutate the list, so they happen only while no other
// thread is publishing — between runs, or from the single thread that
// publishes.

#include "core/executor.hpp"

#include <cstdint>
#include <functional>
#include <utility>
#include <variant>

namespace exa {

// One ParallelFor launch, published under Backend::SimGpu and priced by
// the device model.
struct LaunchRecord {
    KernelInfo info;
    std::int64_t zones = 0;
    int ncomp = 1;
};

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

// Lifecycle of one split-phase halo exchange (HaloHandle). Posted fires
// when FillBoundary_nowait/ParallelCopy_nowait stages the plan's pack
// work; Finished fires after finish() has delivered every item and
// published its MessageRecords. The ledger uses the pair to track how
// many exchanges are in flight — the overlap the async step loop is
// buying.
enum class HaloPhase { Posted, Finished };

struct HaloEvent {
    HaloPhase phase = HaloPhase::Posted;
    const char* tag = "";     // same tag as the MessageRecords it brackets
    std::int64_t items = 0;   // plan items in the exchange
    std::int64_t bytes = 0;   // off-rank payload bytes of the plan
};

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

// Resilience accounting deltas from the supervisor/checkpointer: committed
// checkpoints and their payload bytes, ranks recovered by shrink recovery,
// replayed steps, and the bytes re-read from disk during localized
// restore. Published with partial deltas as events happen (a checkpoint
// commit publishes {1, bytes, 0, 0, 0}); the ledger accumulates. The
// checkpoint commit is published from the *drain thread*, so a listener
// that counts these must be thread-safe (CommLedger keeps them atomic).
struct ResilienceEvent {
    std::int64_t checkpoints = 0;
    std::int64_t checkpoint_bytes = 0;
    std::int64_t ranks_recovered = 0;
    std::int64_t replay_steps = 0;
    std::int64_t recovery_bytes = 0;
};

// MG solve accounting deltas, published once per solve by the
// composite-grid FMG Poisson solver (Castro gravity and the MAESTRO
// projection): cycle/sweep counts plus the coarse-level rank-aggregation
// traffic (staged ParallelCopies between the distributed fine layout and
// the few-rank aggregated coarse layout, and their off-rank payload
// bytes).
struct MgEvent {
    std::int64_t fmg_cycles = 0;
    std::int64_t vcycles = 0;
    std::int64_t sweeps = 0;
    std::int64_t agg_copies = 0;
    std::int64_t agg_bytes = 0;
};

using Event = std::variant<LaunchRecord, MessageRecord, HaloEvent,
                           RebalanceEvent, ResilienceEvent, MgEvent>;

using EventListener = std::function<void(const Event&)>;

namespace events {

// Deliver `e` to every subscriber, in subscription order.
void publish(const Event& e);

// True when at least one subscriber is listening. Publishers check this
// before assembling a record they would otherwise throw away.
bool active();

} // namespace events

// A listener's place on the event stream: subscribed on construction,
// unsubscribed on destruction or reset(). Move-only; a default-constructed
// or moved-from subscription holds nothing.
class EventSubscription {
public:
    EventSubscription() = default;
    explicit EventSubscription(EventListener fn);
    ~EventSubscription() { reset(); }
    EventSubscription(EventSubscription&& o) noexcept
        : m_id(std::exchange(o.m_id, 0)) {}
    EventSubscription& operator=(EventSubscription&& o) noexcept;
    EventSubscription(const EventSubscription&) = delete;
    EventSubscription& operator=(const EventSubscription&) = delete;

    void reset();
    explicit operator bool() const { return m_id != 0; }

private:
    std::uint64_t m_id = 0;
};

namespace events {

// Subscribe `fn` to the events of one alternative `T` only.
template <class T, class F>
[[nodiscard]] EventSubscription subscribe(F fn) {
    return EventSubscription([fn = std::move(fn)](const Event& e) {
        if (const T* x = std::get_if<T>(&e)) fn(*x);
    });
}

} // namespace events

} // namespace exa
