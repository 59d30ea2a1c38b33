#pragma once

// The resilience supervisor: closes the loop from fault to recovery.
//
// The supervisor drives any exa::Driver (Castro, Maestro) and owns the
// run loop: before each step it consults the Daly-scheduled
// AsyncCheckpointer; after each step its heartbeat consults the
// `rank-failure` fault site. When a modeled rank dies the supervisor
// emulates the loss (the victim's fabs are poisoned — that memory is
// gone), shrinks the cost-weighted DistributionMapping onto the surviving
// ranks (ULFM-shrink style, reusing the SFC/knapsack builders +
// MultiFab::Redistribute), restores checkpoint data — fabs whose
// staging-time owner died come from the on-disk slot (per-fab CRC
// verified), everything else from the retained in-memory staged copy —
// and rewinds the driver clock. Replay then happens naturally in the same
// loop; because every step is deterministic, the recovered run's final
// state is bit-identical to an uninterrupted one.
//
// If a needed disk fab is corrupted (checkpoint-bit-flip campaign), the
// supervisor falls back to a full rollback from the *other* slot; if that
// also fails, or no rank survives, the run is unrecoverable and throws.

#include "castro/driver.hpp"
#include "mesh/distribution.hpp"
#include "resilience/checkpointer.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace exa::resilience {

struct SupervisorOptions {
    CheckpointerOptions checkpoint;
    int nranks = 1;
    DistributionMapping::Strategy strategy =
        DistributionMapping::Strategy::Knapsack;
    // Consult the rank-failure site after every step and recover.
    bool heartbeat = true;
    // Deterministic victim selection seed (hashed with the kill ordinal).
    std::uint64_t victim_seed = 0x5eedULL;
    bool verbose = false;
};

struct SupervisorReport {
    int steps_run = 0;           // driver steps executed, replays included
    int ranks_failed = 0;
    int ranks_recovered = 0;
    int replay_steps = 0;
    int localized_restores = 0;  // lost fabs from disk, survivors from memory
    int full_rollbacks = 0;      // whole state from the other slot
    std::int64_t checkpoints_written = 0;
    std::int64_t checkpoint_bytes = 0;
    std::int64_t checkpoints_skipped = 0;
    std::int64_t recovery_disk_bytes = 0;
    double recovery_seconds = 0.0;
    double step_seconds = 0.0;   // total wall time inside driver steps
    int daly_interval_steps = 0; // final interval estimate

    // Human-readable end-of-run report, with the driver's StepGuard
    // RetryStats.
    std::string summary(const RetryStats& retry) const;
};

class ResilienceSupervisor {
public:
    // Binds a caller-owned driver, which must outlive the supervisor. All
    // driver calls run on the calling thread.
    ResilienceSupervisor(Driver& driver, SupervisorOptions opt);

    // Advance the driver by `nsteps` accepted steps (replayed steps do not
    // count toward the target — the run ends at the same step count and,
    // step for step, the same states as an uninterrupted run). Throws
    // std::runtime_error when a failure is unrecoverable.
    void runSteps(int nsteps);

    const SupervisorReport& report() const { return m_report; }
    AsyncCheckpointer& checkpointer() { return m_ckpt; }
    int ranksAlive() const;
    const std::vector<bool>& alive() const { return m_alive; }

    // The report with the driver's retry stats folded in.
    std::string summary() const;

private:
    void maybeCheckpoint();
    void syncCheckpointStats();
    // Heartbeat: true if a rank failure fired and was recovered.
    bool heartbeat();
    void killRank(int victim);
    void recover();
    // Restore every field from `snap`: disk for fabs whose staging-time
    // owner is dead (CRC-verified), memory otherwise. Throws on a bad disk
    // fab. Returns bytes read from disk.
    std::int64_t restoreFromSnapshot(const CheckpointSnapshot& snap,
                                     std::vector<CheckpointField>& fields);
    // Full rollback from an on-disk slot (all fabs from disk).
    std::int64_t restoreFromSlot(const std::string& slot,
                                 std::vector<CheckpointField>& fields);
    // Cost-weighted mapping over the surviving ranks for `ba` (packed
    // knapsack/SFC build remapped onto alive rank ids).
    DistributionMapping shrinkMapping(const BoxArray& ba) const;
    // Redistribute every field onto shrink mappings,
    // reusing one mapping per distinct live layout.
    void shrinkFields(std::vector<CheckpointField>& fields);
    std::vector<int> aliveList() const;

    Driver& m_driver;
    SupervisorOptions m_opt;
    AsyncCheckpointer m_ckpt;
    std::vector<bool> m_alive;
    int m_kills = 0;
    SupervisorReport m_report;
};

} // namespace exa::resilience
