#pragma once

// The lambda-based ParallelFor abstraction — the centerpiece of the
// paper's port. Application kernels define only the work at one zone
// (i,j,k); the backend decides how index space maps to execution
// resources:
//
//   * Serial  — triply-nested loop, k outermost (Fortran-friendly order).
//   * OpenMP  — `omp parallel for` over the flattened k*j range, but only
//               for launches whose modeled work reaches kOmpForkFlops;
//               smaller launches run the Serial loop inline on the
//               calling thread (see ompForks below and DESIGN.md §17).
//   * SimGpu  — identical arithmetic to Serial (so results are
//               bit-reproducible across backends), plus a LaunchRecord
//               published to the device model, which charges modeled GPU time.
//
// Correctness contract (same as a real GPU launch): the body must be safe
// to run for all zones concurrently — it may write only to locations
// keyed by its own (i,j,k[,n]).

#include "core/box.hpp"
#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/real.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

namespace exa {

// Break-even of an OpenMP launch, in modeled flops (zones x ncomp x
// KernelInfo::flops_per_zone). Forking and joining a team costs a few
// microseconds of libgomp time (2.6 us for 4 threads on a 4-core Xeon),
// the CPU analogue of GPU launch latency. Below this much work the team
// costs more than it saves, so the launch runs inline on the calling
// thread. 4096 flops is a 16^3 fab at one flop per zone, so the max
// reductions over hydro fabs (one modeled flop per zone, far more real
// work) still fork while most halo slabs and 8^3 AMR launches run
// inline. Values from 2e3 to 4e5 all give 2.5-3x on the AMR workload
// (EXPERIMENTS E18). Fixed by design: nothing overrides it at run time.
inline constexpr double kOmpForkFlops = 4096.0;

namespace detail {

// Whether an OpenMP launch of `flops` modeled work forks a thread team.
// It does not when the work is below kOmpForkFlops, when the caller is
// already inside a parallel region, or when only one thread is available;
// the launch then runs the Serial loop on the calling thread. This is an
// explicit branch, not an `if` clause, so inline launches never enter
// libgomp at all.
inline bool ompForks(double flops) {
#if defined(EXA_USE_OPENMP)
    return flops >= kOmpForkFlops && omp_get_max_threads() > 1 && !omp_in_parallel();
#else
    (void)flops;
    return false;
#endif
}

inline double modeledFlops(const KernelInfo& ki, std::int64_t zones, int ncomp) {
    return static_cast<double>(zones) * ncomp * ki.flops_per_zone;
}

template <typename F>
inline void serial_for(const Box& box, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                f(i, j, k);
}

template <typename F>
inline void serial_for(const Box& box, int ncomp, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    for (int n = 0; n < ncomp; ++n)
        for (int k = lo.z; k <= hi.z; ++k)
            for (int j = lo.y; j <= hi.y; ++j)
                for (int i = lo.x; i <= hi.x; ++i)
                    f(i, j, k, n);
}

template <typename F>
inline void omp_for(const Box& box, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                f(i, j, k);
}

template <typename F>
inline void omp_for(const Box& box, int ncomp, F&& f) {
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int n = 0; n < ncomp; ++n)
                for (int i = lo.x; i <= hi.x; ++i)
                    f(i, j, k, n);
}

inline void record_launch(const KernelInfo& ki, std::int64_t zones, int ncomp) {
    events::publish(LaunchRecord{ki, zones, ncomp});
}

} // namespace detail

// --- ParallelFor over the zones of a box -------------------------------

template <typename F>
void ParallelFor(const KernelInfo& ki, const Box& box, F&& f) {
    if (!box.ok()) return;
    switch (ExecConfig::backend()) {
        case Backend::Serial:
            detail::serial_for(box, std::forward<F>(f));
            break;
        case Backend::OpenMP:
            if (detail::ompForks(detail::modeledFlops(ki, box.numPts(), 1)))
                detail::omp_for(box, std::forward<F>(f));
            else
                detail::serial_for(box, std::forward<F>(f));
            break;
        case Backend::SimGpu:
            detail::record_launch(ki, box.numPts(), 1);
            detail::serial_for(box, std::forward<F>(f));
            break;
        case Backend::Debug:
            debug::checked_for(ki, box, std::forward<F>(f));
            break;
    }
}

template <typename F>
void ParallelFor(const Box& box, F&& f) {
    ParallelFor(KernelInfo{}, box, std::forward<F>(f));
}

// --- ParallelFor over zones x components --------------------------------

template <typename F>
void ParallelFor(const KernelInfo& ki, const Box& box, int ncomp, F&& f) {
    if (!box.ok() || ncomp <= 0) return;
    switch (ExecConfig::backend()) {
        case Backend::Serial:
            detail::serial_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::OpenMP:
            if (detail::ompForks(detail::modeledFlops(ki, box.numPts(), ncomp)))
                detail::omp_for(box, ncomp, std::forward<F>(f));
            else
                detail::serial_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::SimGpu:
            detail::record_launch(ki, box.numPts(), ncomp);
            detail::serial_for(box, ncomp, std::forward<F>(f));
            break;
        case Backend::Debug:
            debug::checked_for(ki, box, ncomp, std::forward<F>(f));
            break;
    }
}

template <typename F>
void ParallelFor(const Box& box, int ncomp, F&& f) {
    ParallelFor(KernelInfo{}, box, ncomp, std::forward<F>(f));
}

// --- Fused ParallelFor over a list of tags --------------------------------
//
// One launch over many boxes, the way AMReX fuses the copy tags of a
// FillBoundary: `tag(t)` for t in [0, ntags) returns a
// std::pair<Box, Body> holding the tag's box and its zone body, a
// body(i,j,k) when ncomp == 1 or a body(i,j,k,n) over ncomp components.
// The factory builds the body's Array4s once per tag, never per zone,
// and indexes data its caller has cached (a copy plan's items, a
// partition's fabs), so a launch allocates nothing outside the Debug
// checker. Tags with empty boxes are skipped; the launch publishes one
// LaunchRecord whose zones are the sum over the others, and nothing when
// there are none.
//
//   * Serial / OpenMP — the tags run in list order through the per-box
//     path above, each behind its own kOmpForkFlops gate, so measured
//     time and bits are those of one launch per tag (DESIGN.md §20).
//   * SimGpu — one LaunchRecord, then the Serial loops.
//   * Debug — one checked launch over the concatenated (tag, zone) index,
//     whose ascending order is Serial's, so the contract holds across
//     tags too: no two tags may write the same location.

namespace detail {

template <typename Body>
inline constexpr bool kTakesComponent = std::is_invocable_v<Body&, int, int, int, int>;

// One tag of a fused launch on the host; `omp` lets it fork a team under
// the same gate as a launch over that box alone.
template <typename Body>
inline void runTag(bool omp, const KernelInfo& ki, const Box& box, int ncomp, Body& body) {
    if (!box.ok()) return;
    const bool fork = omp && ompForks(modeledFlops(ki, box.numPts(), ncomp));
    if constexpr (kTakesComponent<Body>) {
        if (fork)
            omp_for(box, ncomp, body);
        else
            serial_for(box, ncomp, body);
    } else {
        if (fork)
            omp_for(box, body);
        else
            serial_for(box, body);
    }
}

template <typename TagFn>
void checkedFusedFor(const KernelInfo& ki, std::size_t ntags, int ncomp, TagFn& tag) {
    using Body = std::decay_t<decltype(tag(std::size_t{0}).second)>;
    struct Item {
        Box box;
        std::int64_t first; // concatenated index of the tag's first work item
        Body body;
    };
    std::vector<Item> items;
    items.reserve(ntags);
    std::int64_t total = 0;
    for (std::size_t t = 0; t < ntags; ++t) {
        auto [box, body] = tag(t);
        if (!box.ok()) continue;
        items.push_back(Item{box, total, std::move(body)});
        total += box.numPts() * ncomp;
    }
    if (total == 0) return;
    debug::run_checked(ki, total, [&](std::int64_t l) {
        auto it = std::upper_bound(items.begin(), items.end(), l,
                                   [](std::int64_t v, const Item& x) { return v < x.first; });
        Item& item = *(it - 1);
        const Box& b = item.box;
        const std::int64_t npts = b.numPts();
        const std::int64_t z = (l - item.first) % npts;
        const Dim3 lo = b.loDim3();
        const std::int64_t nx = b.length(0);
        const int i = lo.x + static_cast<int>(z % nx);
        const int j = lo.y + static_cast<int>((z / nx) % b.length(1));
        const int k = lo.z + static_cast<int>(z / (nx * b.length(1)));
        if constexpr (kTakesComponent<Body>) {
            item.body(i, j, k, static_cast<int>((l - item.first) / npts));
        } else {
            item.body(i, j, k);
        }
    });
}

} // namespace detail

template <typename TagFn>
void ParallelFor(const KernelInfo& ki, std::size_t ntags, int ncomp, TagFn&& tag) {
    if (ntags == 0 || ncomp <= 0) return;
    switch (ExecConfig::backend()) {
        case Backend::Serial:
        case Backend::OpenMP: {
            const bool omp = ExecConfig::backend() == Backend::OpenMP;
            for (std::size_t t = 0; t < ntags; ++t) {
                auto [box, body] = tag(t);
                detail::runTag(omp, ki, box, ncomp, body);
            }
            break;
        }
        case Backend::SimGpu: {
            std::int64_t zones = 0;
            for (std::size_t t = 0; t < ntags; ++t) {
                const Box box = tag(t).first;
                if (box.ok()) zones += box.numPts();
            }
            if (zones == 0) return;
            detail::record_launch(ki, zones, ncomp);
            for (std::size_t t = 0; t < ntags; ++t) {
                auto [box, body] = tag(t);
                detail::runTag(false, ki, box, ncomp, body);
            }
            break;
        }
        case Backend::Debug:
            detail::checkedFusedFor(ki, ntags, ncomp, tag);
            break;
    }
}

// --- 1-D ParallelFor -----------------------------------------------------
//
// 1-D launches run unchecked (plain serial) under Backend::Debug: their
// targets are frequently host-side lists rather than arena state, so the
// snapshot/replay machinery of the box variants does not apply.

template <typename F>
void ParallelFor(const KernelInfo& ki, std::int64_t n, F&& f) {
    if (n <= 0) return;
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, n, 1);
    }
#if defined(EXA_USE_OPENMP)
    if (ExecConfig::backend() == Backend::OpenMP &&
        detail::ompForks(detail::modeledFlops(ki, n, 1))) {
#pragma omp parallel for schedule(static)
        for (std::int64_t i = 0; i < n; ++i) f(i);
        return;
    }
#endif
    for (std::int64_t i = 0; i < n; ++i) f(i);
}

template <typename F>
void ParallelFor(std::int64_t n, F&& f) {
    ParallelFor(KernelInfo{}, n, std::forward<F>(f));
}

// --- Reductions ----------------------------------------------------------
//
// Reductions are launches too (the device model charges them). Sums
// accumulate in Serial zone order on every backend, OpenMP included and
// at any box size: floating-point addition does not associate, so a
// thread-partitioned sum would make MultiFab::sum, norm2 and the
// multigrid mean removal depend on OMP_NUM_THREADS. Max (and Min, which
// is built on it) returns one of its inputs whatever the order (NaNs and
// signed zeros aside), so under OpenMP it still forks a team above
// kOmpForkFlops. Reductions have no fused form: MultiFab::sum adds one
// partial per fab, and one running sum across fabs would round
// differently.

template <typename F>
Real ParallelReduceSum(const KernelInfo& ki, const Box& box, F&& f) {
    if (!box.ok()) return 0.0;
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    Real s = 0.0;
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                s += f(i, j, k);
    return s;
}

template <typename F>
Real ParallelReduceSum(const Box& box, F&& f) {
    return ParallelReduceSum(KernelInfo{"reduce_sum", 1, 8, 32, 1.0}, box,
                             std::forward<F>(f));
}

template <typename F>
Real ParallelReduceMax(const KernelInfo& ki, const Box& box, F&& f) {
    // Identity of max: an empty box (or empty MultiFab) reduces to -inf,
    // so that max(empty, x) == x for every finite x.
    if (!box.ok()) return -std::numeric_limits<Real>::infinity();
    if (ExecConfig::backend() == Backend::SimGpu) {
        detail::record_launch(ki, box.numPts(), 1);
    }
    Real m = -std::numeric_limits<Real>::infinity();
    const Dim3 lo = box.loDim3();
    const Dim3 hi = box.hiDim3();
#if defined(EXA_USE_OPENMP)
    if (ExecConfig::backend() == Backend::OpenMP &&
        detail::ompForks(detail::modeledFlops(ki, box.numPts(), 1))) {
#pragma omp parallel for collapse(2) reduction(max : m) schedule(static)
        for (int k = lo.z; k <= hi.z; ++k)
            for (int j = lo.y; j <= hi.y; ++j)
                for (int i = lo.x; i <= hi.x; ++i)
                    m = std::max(m, f(i, j, k));
        return m;
    }
#endif
    for (int k = lo.z; k <= hi.z; ++k)
        for (int j = lo.y; j <= hi.y; ++j)
            for (int i = lo.x; i <= hi.x; ++i)
                m = std::max(m, f(i, j, k));
    return m;
}

template <typename F>
Real ParallelReduceMax(const Box& box, F&& f) {
    return ParallelReduceMax(KernelInfo{"reduce_max", 1, 8, 32, 1.0}, box,
                             std::forward<F>(f));
}

template <typename F>
Real ParallelReduceMin(const Box& box, F&& f) {
    return -ParallelReduceMax(box, [&](int i, int j, int k) { return -f(i, j, k); });
}

} // namespace exa
