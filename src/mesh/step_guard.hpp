#pragma once

// The step-retry / fault-tolerance layer.
//
// Production Castro ships a `use_retry` mechanism: when an advance
// produces an invalid state (a burn that did not converge, a NaN, a
// negative density), the level is rolled back and re-advanced with
// subcycled smaller timesteps. This is the analogue for our drivers:
//
//   snapshot -> advance -> validate
//     ok      -> accept
//     invalid -> restore snapshot, re-advance as 2x, 4x, ... substeps of
//                dt (geometric backoff) up to max_retries doublings
//     still invalid -> degrade per RetryPolicy: hard error (throw
//                StepRetryError) or clamp-and-warn (driver repairs the
//                invalid zones from the snapshot and the run continues,
//                flagged in RetryStats::degraded)
//
// The engine is physics-agnostic: drivers supply snapshot/restore/
// advance/validate/degrade callbacks so Castro and Maestro
// share one retry loop. Exceptions thrown by the advance callback (e.g.
// an injected arena allocation failure) are treated as failed attempts,
// not crashes: the snapshot restore makes them recoverable.

#include "mesh/multifab.hpp"

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace exa {

// What to do when every retry of a step produced an invalid state.
enum class RetryPolicy {
    HardError,    // throw StepRetryError (never continue from garbage)
    ClampAndWarn, // repair invalid zones from the pre-step state, warn, go on
};

struct StepGuardOptions {
    bool enabled = false; // off: drivers behave exactly as before this layer
    int max_retries = 3;  // dt-halving rounds after the first attempt
    RetryPolicy policy = RetryPolicy::HardError;
    // Post-step validator thresholds.
    bool check_finite = true;        // NaN/Inf anywhere in the state
    Real min_density = 0.0;          // rho <= this fails (Castro-family states)
    Real min_energy = 0.0;           // rho E <= this fails
    Real species_sum_rtol = 1.0e-6;  // |sum X - 1| tolerance
    double burn_failure_tol = 0.0;   // tolerated failing-zone fraction per step
    bool verbose = true;             // narrate retries/degradations on stderr
};

struct ValidationIssue {
    std::string check;  // "non-finite", "negative-density", "burn-failures", ...
    std::string detail; // human-readable: first offending zone, values, level
};

struct ValidationReport {
    std::vector<ValidationIssue> issues;
    bool ok() const { return issues.empty(); }
    void add(std::string check, std::string detail);
    std::string summary() const; // "" when ok
};

// Per-run retry accounting, reported by drivers next to BurnGridStats.
struct RetryStats {
    std::int64_t steps_guarded = 0; // guarded steps attempted
    std::int64_t retries = 0;       // rollback + re-advance rounds (cumulative)
    std::int64_t degraded = 0;      // steps that exhausted retries and clamped
    // Fields describing the most recent guarded step:
    int last_attempts = 0;      // 1 = accepted clean
    int last_subcycles = 1;     // substeps of the accepted (or final) attempt
    std::int64_t snapshot_bytes = 0;
    std::string last_failure;   // summary of the last failed validation, if any
};

// Retries exhausted under RetryPolicy::HardError.
class StepRetryError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// A rollback point: arena-backed clones of one or more MultiFabs (all
// components, valid + ghost zones). Allocation goes through The_Arena(),
// so with the default pool arena repeated snapshots are handle reuse, not
// fresh allocations — the same property that makes per-step temporaries
// cheap makes per-step rollback points cheap.
class StateSnapshot {
public:
    // Append a clone of src. Returns its index for restoreTo().
    std::size_t capture(const MultiFab& src);
    std::size_t count() const { return m_copies.size(); }
    std::int64_t bytes() const { return m_bytes; }

    // Copy snapshot i back into dst, which must still have the layout the
    // snapshot was taken from (guarded advances must not regrid).
    void restoreTo(std::size_t i, MultiFab& dst) const;
    const MultiFab& mf(std::size_t i) const { return m_copies[i]; }

    // Scalar side channel for non-MultiFab rollback state (per-level
    // times of a subcycled hierarchy). Same index discipline as capture().
    std::size_t captureScalar(Real v) {
        m_scalars.push_back(v);
        return m_scalars.size() - 1;
    }
    Real scalar(std::size_t i) const { return m_scalars.at(i); }
    std::size_t scalarCount() const { return m_scalars.size(); }

private:
    std::vector<MultiFab> m_copies;
    std::vector<Real> m_scalars;
    std::int64_t m_bytes = 0;
};

class StepGuard {
public:
    explicit StepGuard(const StepGuardOptions& opt) : m_opt(opt) {}

    using SnapshotFn = std::function<void(StateSnapshot&)>;
    using RestoreFn = std::function<void(const StateSnapshot&)>;
    // Advance the state by `nsub` substeps of `sub_dt` each.
    using AdvanceFn = std::function<void(Real sub_dt, int nsub)>;
    using ValidateFn = std::function<ValidationReport()>;
    // Retries exhausted under ClampAndWarn. `advance_threw`: the final
    // attempt died in an exception, so the state was restored to the
    // snapshot before this call; otherwise it holds the final (invalid)
    // attempt for the driver to repair.
    using DegradeFn = std::function<void(const StateSnapshot&, bool advance_threw)>;

    enum class Outcome { Clean, Retried, Degraded };

    // Run one guarded step of total size dt through the retry loop.
    Outcome advance(Real dt, const SnapshotFn& snapshot, const RestoreFn& restore,
                    const AdvanceFn& advanceFn, const ValidateFn& validate,
                    const DegradeFn& degrade);

    const StepGuardOptions& options() const { return m_opt; }
    const RetryStats& stats() const { return m_stats; }

    // True while any StepGuard::advance() is on the call stack (process-
    // wide). The Rebalancer consults this: migrating state between a
    // snapshot and its possible restore would desynchronize the rollback
    // point, so rebalancing mid-retry is forbidden.
    static bool advanceActive();

private:
    StepGuardOptions m_opt;
    RetryStats m_stats;
};

// Validator building blocks shared by the drivers: scan `comps` (all when
// empty) of every valid zone for NaN/Inf; report the first offending zone
// per fab. `label` names the state in the issue detail ("level 1", ...).
void checkFinite(const MultiFab& s, ValidationReport& rep, const std::string& label);

// rho-weighted positivity check: component `comp` must exceed `floor`.
void checkAbove(const MultiFab& s, int comp, Real floor, const char* check,
                ValidationReport& rep, const std::string& label);

} // namespace exa
