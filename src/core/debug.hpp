#pragma once

// The Backend::Debug verification subsystem.
//
// The whole port rests on one correctness contract (see parallel_for.hpp):
// a ParallelFor body must be safe to run for all zones concurrently,
// writing only to locations keyed by its own (i,j,k[,n]). Nothing in the
// serial or OpenMP backends enforces this — a kernel with a hidden
// cross-zone dependency produces the right answer on the CPU and silently
// races on a real GPU. Backend::Debug makes such kernels fail loudly:
//
//   1. Order check: the launch runs once in forward zone order, then again
//      in reversed (and, for small launches, shuffled) zone order against
//      a snapshot of all arena-resident state. Any divergence means some
//      zone observed another zone's write — a race under GPU semantics —
//      and is reported with the offending KernelInfo::name.
//   2. Write-footprint check: the launch is replayed zone by zone and the
//      bytes each zone changes are attributed to it. Two zones changing
//      the same byte is reported as a write collision even when the final
//      answer happens to be order-independent (e.g. exact-integer += into
//      a shared accumulator).
//
// The final memory state of a Debug launch is always the forward-order
// result, so Debug stays bit-identical to Serial and existing numeric
// assertions keep holding.
//
// Scope and limits: only arena-resident state is snapshotted (the debug
// registry enumerates every live Arena block; anything a contract-clean
// GPU kernel may write is device-resident, i.e. arena-backed). Checks are
// rate-limited per kernel name and byte-budgeted so whole test suites can
// run under Backend::Debug; see the EXA_DEBUG_* knobs on debug::Limits.

#include "core/box.hpp"
#include "core/executor.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace exa::debug {

// One detected violation (contract breach or allocator misuse).
struct Violation {
    std::string source; // KernelInfo::name or arena name
    std::string kind;   // "order-dependence", "write-collision", "double-free", ...
    std::string detail;
};

// Report a violation: records it, prints to stderr, and aborts the process
// when abortOnViolation() is set (the default, so a violating kernel can
// never slip through a green test run). GuardArena routes its canary /
// double-free / bad-free findings through here too.
void reportViolation(const std::string& source, const std::string& kind,
                     const std::string& detail);

std::size_t violationCount();
std::vector<Violation> violations();
void clearViolations();

void setAbortOnViolation(bool abort_on_violation);
bool abortOnViolation();

// RAII: disable abort-on-violation for a scope (checker self-tests).
class ScopedViolationTrap {
public:
    ScopedViolationTrap() : m_saved(abortOnViolation()) { setAbortOnViolation(false); }
    ~ScopedViolationTrap() { setAbortOnViolation(m_saved); }
    ScopedViolationTrap(const ScopedViolationTrap&) = delete;
    ScopedViolationTrap& operator=(const ScopedViolationTrap&) = delete;

private:
    bool m_saved;
};

// Cost-control knobs, initialized once from the environment.
struct Limits {
    // Launches checked per distinct kernel name before passing through
    // (EXA_DEBUG_CHECKS_PER_KERNEL, 0 = unlimited).
    int checks_per_kernel = 4;
    // Skip checking entirely when more than this many arena bytes are live
    // (EXA_DEBUG_SNAPSHOT_CAP).
    std::int64_t snapshot_byte_cap = std::int64_t{1} << 28;
    // Run the per-zone footprint pass only when zones * written-bytes fits
    // this budget (EXA_DEBUG_FOOTPRINT_BUDGET).
    std::int64_t footprint_budget = std::int64_t{1} << 28;
    // Run the shuffled-order pass only up to this many zones
    // (EXA_DEBUG_SHUFFLE_CAP).
    std::int64_t shuffle_zone_cap = std::int64_t{1} << 20;
};
Limits& limits();

// Forget which kernels have used up their per-name check quota.
void resetCheckCounts();

// RAII: check every launch in a scope (checks_per_kernel = 0), then
// restore the limit and the per-name counts, so the scope leaves the
// checking of the process's later launches as it found it.
class ScopedCheckEveryLaunch {
public:
    ScopedCheckEveryLaunch();
    ~ScopedCheckEveryLaunch();
    ScopedCheckEveryLaunch(const ScopedCheckEveryLaunch&) = delete;
    ScopedCheckEveryLaunch& operator=(const ScopedCheckEveryLaunch&) = delete;

private:
    int m_saved_limit;
    std::map<std::string, int> m_saved_counts;
};

// Snapshot/compare engine for one checked launch. Non-template so the
// heavy machinery stays out of line; driven by run_checked() below.
class LaunchCheck {
public:
    LaunchCheck(const KernelInfo& ki, std::int64_t work_items);
    ~LaunchCheck();
    LaunchCheck(const LaunchCheck&) = delete;
    LaunchCheck& operator=(const LaunchCheck&) = delete;

    bool active() const { return m_active; }

    void captureForward();              // record S1 = forward-order result
    void restoreBaseline();             // memory := S0 (pre-launch state)
    void compareAgainstForward(const char* order_name); // diff memory vs S1
    bool shuffleWanted() const;
    bool footprintWanted();             // budget check on bytes the launch writes
    void beginFootprint();              // shadow state for per-zone attribution
    void footprintScan(std::int64_t item); // attribute bytes changed by `item`
    void finish();                      // memory := S1, emit reports

private:
    struct Snap {
        unsigned char* ptr;
        std::size_t bytes;
        std::vector<unsigned char> baseline; // S0
        std::vector<unsigned char> forward;  // S1
    };
    struct Footprint {
        std::size_t snap;                  // index into m_snaps
        std::vector<unsigned char> shadow; // rolling pre-zone state
        std::vector<std::int64_t> owner;   // byte -> writing item (-1 = none)
    };

    void computeWrittenBytes();

    std::string m_kernel;
    std::int64_t m_items = 0;
    bool m_active = false;
    bool m_collision_reported = false;
    std::int64_t m_written_bytes = -1; // lazily computed S0 vs S1 diff
    std::vector<Snap> m_snaps;
    std::vector<Footprint> m_footprints;
};

// Deterministic permutation of [0, n) (fixed-seed Fisher-Yates).
std::vector<std::int64_t> shuffledOrder(std::int64_t n);

// Drive one checked launch. `call(l)` must execute work item l, where
// ascending l is exactly the serial backend's nesting order, so the
// forward pass is bit-identical to Backend::Serial.
template <typename Call>
void run_checked(const KernelInfo& ki, std::int64_t nitems, Call&& call) {
    LaunchCheck chk(ki, nitems);
    if (!chk.active()) {
        for (std::int64_t l = 0; l < nitems; ++l) call(l);
        return;
    }
    for (std::int64_t l = 0; l < nitems; ++l) call(l);
    chk.captureForward();
    chk.restoreBaseline();
    for (std::int64_t l = nitems - 1; l >= 0; --l) call(l);
    chk.compareAgainstForward("reversed");
    if (chk.shuffleWanted()) {
        chk.restoreBaseline();
        for (std::int64_t l : shuffledOrder(nitems)) call(l);
        chk.compareAgainstForward("shuffled");
    }
    if (chk.footprintWanted()) {
        chk.restoreBaseline();
        chk.beginFootprint();
        for (std::int64_t l = 0; l < nitems; ++l) {
            call(l);
            chk.footprintScan(l);
        }
    }
    chk.finish();
}

// Backend::Debug entry points used by ParallelFor. The linear item order
// mirrors detail::serial_for exactly (i fastest, then j, k[, n outermost]).
template <typename F>
void checked_for(const KernelInfo& ki, const Box& box, F&& f) {
    const Dim3 lo = box.loDim3();
    const std::int64_t nx = box.length(0);
    const std::int64_t nxy = nx * box.length(1);
    run_checked(ki, box.numPts(), [&](std::int64_t l) {
        const int i = lo.x + static_cast<int>(l % nx);
        const int j = lo.y + static_cast<int>((l / nx) % box.length(1));
        const int k = lo.z + static_cast<int>(l / nxy);
        f(i, j, k);
    });
}

template <typename F>
void checked_for(const KernelInfo& ki, const Box& box, int ncomp, F&& f) {
    const Dim3 lo = box.loDim3();
    const std::int64_t nx = box.length(0);
    const std::int64_t nxy = nx * box.length(1);
    const std::int64_t npts = box.numPts();
    run_checked(ki, npts * ncomp, [&](std::int64_t l) {
        const int n = static_cast<int>(l / npts);
        const std::int64_t z = l % npts;
        const int i = lo.x + static_cast<int>(z % nx);
        const int j = lo.y + static_cast<int>((z / nx) % box.length(1));
        const int k = lo.z + static_cast<int>(z / nxy);
        f(i, j, k, n);
    });
}

} // namespace exa::debug
