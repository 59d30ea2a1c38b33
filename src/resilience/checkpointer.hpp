#pragma once

// Asynchronous double-buffered checkpointing with a Daly-optimal
// scheduler.
//
// The step loop pays only the *staging* cost of a checkpoint: a blocking
// valid-region copy of every field into plain host buffers (stageLevel —
// no kernel launches). The file I/O and CRC work drain on a background
// thread into two alternating slot directories (chk_A / chk_B), each
// committed by an atomic rename, so a crash mid-write always leaves the
// previous committed slot intact and the in-flight one invisible.
//
// The checkpoint interval follows Daly's first-order optimum
//     t_opt = sqrt(2 * delta * M)
// with delta the per-checkpoint cost the step loop actually pays (the
// staging seconds) and M the mean time between failures, both expressed
// in *step* units so the interval is a step count: the per-step blocking
// cost delta/t of checkpointing every t steps plus the expected rework
// t/(2M) per step is minimized at t = sqrt(2*(delta/tau)*M_steps). Both
// inputs are re-estimated online (EMAs of measured staging and step
// seconds; observed failures sharpen the armed-config MTBF).
//
// Thread-safety contract: checkpoint()/flush()/noteStepSeconds() are
// main-thread calls; the drain thread touches only plain host buffers,
// the filesystem, fault::shouldFire (mutexed), and events::publish of a
// ResilienceEvent (CommLedger, its listener, keeps these counters
// atomic). Subscribe to or leave the event stream only after flush(),
// while no drain is in flight.
// MultiFab data is never accessed off the main thread.

#include "castro/driver.hpp"
#include "mesh/plotfile.hpp"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace exa::resilience {

// A field staged into host buffers, with the rank that owned each fab at
// staging time: recovery restores fabs whose staging-time owner died from
// the on-disk slot (their share of this in-memory copy died with the
// rank) and everything else from memory.
struct StagedField {
    std::string name;
    StagedLevel level;
    std::vector<int> owner;
};

// The full in-memory payload of one checkpoint. `dir` is the committed
// slot directory ("" while the write is still in flight or failed).
struct CheckpointSnapshot {
    Real time = 0.0;
    int step = -1;
    std::vector<StagedField> fields;
    std::string dir;
    bool valid() const { return step >= 0; }
};

// First-order Daly interval in steps, clamped to [min_interval,
// max_interval]: sqrt(2 * (ckpt_seconds / step_seconds) * mtbf_steps).
// Degenerate inputs (non-positive step cost or MTBF) return max_interval.
int dalyIntervalSteps(double ckpt_seconds, double step_seconds,
                      double mtbf_steps, int min_interval, int max_interval);

struct CheckpointerOptions {
    std::string dir;        // parent directory holding the two slots
    bool async = true;      // false: write through on the calling thread
    int min_interval = 1;   // steps
    int max_interval = 64;  // steps
    int interval_hint = 0;  // > 0: fixed interval, Daly disabled
    // > 0: MTBF in steps to seed Daly with; otherwise implied by the armed
    // rank-failure fault spec (1/prob), falling back to 1000 steps.
    double mtbf_hint_steps = 0.0;
};

class AsyncCheckpointer {
public:
    explicit AsyncCheckpointer(CheckpointerOptions opt);
    ~AsyncCheckpointer();
    AsyncCheckpointer(const AsyncCheckpointer&) = delete;
    AsyncCheckpointer& operator=(const AsyncCheckpointer&) = delete;

    // Scheduling: true when `step` is due for a checkpoint under the
    // current interval estimate (always true for the first call).
    bool due(int step) const;
    int intervalSteps() const;

    // EMA inputs for the Daly estimate.
    void noteStepSeconds(double seconds);
    void noteFailureAtStep(int step);

    // Stage `fields` (blocking copy on the calling thread) and hand the
    // write to the drain thread (or write through when async is off).
    // Returns false — and skips — if the drain thread is still busy with
    // the previous checkpoint: a slower-than-interval disk simply stretches
    // the effective interval instead of blocking the step loop.
    bool checkpoint(const std::vector<CheckpointField>& fields, Real time,
                    int step);

    // Block until the in-flight write (if any) has committed or failed.
    void flush();

    // Latest committed checkpoint (nullptr before the first commit).
    std::shared_ptr<const CheckpointSnapshot> latest() const;

    // Accounting.
    std::int64_t checkpointsWritten() const;
    std::int64_t checkpointBytes() const;
    std::int64_t checkpointsSkipped() const { return m_skipped; }
    double lastStagingSeconds() const { return m_last_staging_seconds; }
    const std::string& lastError() const { return m_last_error; }

private:
    void drainLoop();
    void writeSnapshot(const std::shared_ptr<CheckpointSnapshot>& snap,
                       const std::string& slot);
    std::string nextSlot() const;
    double mtbfSteps() const;

    CheckpointerOptions m_opt;

    // Daly inputs (main thread only).
    double m_staging_ema = 0.0;
    double m_step_ema = 0.0;
    int m_last_ckpt_step = -1;
    int m_failures_seen = 0;
    int m_first_step_seen = -1;
    int m_last_failure_step = -1;
    double m_last_staging_seconds = 0.0;
    std::int64_t m_skipped = 0;

    // Drain-thread handshake.
    mutable std::mutex m_mutex;
    std::condition_variable m_cv;
    std::thread m_drain;
    bool m_stop = false;
    bool m_busy = false;
    std::shared_ptr<CheckpointSnapshot> m_pending; // job for the drain thread
    std::string m_pending_slot;
    std::shared_ptr<const CheckpointSnapshot> m_latest; // committed
    std::int64_t m_written = 0;
    std::int64_t m_bytes = 0;
    std::string m_last_error;
};

} // namespace exa::resilience
