#pragma once

#include "mesh/box_array.hpp"
#include "mesh/distribution.hpp"
#include "mesh/gather_plan.hpp"
#include "mesh/geometry.hpp"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace exa {

// Cached communication metadata, mirroring AMReX's FabArrayBase::FB / CPC
// copier caches. Every FillBoundary / ParallelCopy / averageDown used to
// recompute its box-box intersections from scratch on each call — an
// O(nfabs^2 x shifts) host-side scan repeated every timestep, exactly the
// per-step CPU overhead the paper's GPU-resident architecture cannot
// afford. A CopyPlan memoizes the full intersection set once per
// (BoxArray id, DistributionMapping id, ngrow, periodicity) and is then
// replayed for the cost of a hash lookup.

// One box-to-box copy of a plan. src_box and dst_box have the same shape;
// they differ by the periodic shift that produced the intersection.
struct CopyItem {
    int dst_fab = 0;
    int src_fab = 0;
    Box dst_box; // region written in the destination fab
    Box src_box; // same-shape region read from the source fab
    int dst_rank = 0;
    int src_rank = 0;
    bool local() const { return src_rank == dst_rank; }
};

// A full copy plan. Component-independent: an item moves
// numPts * ncomp * sizeof(Real) bytes with ncomp supplied at execution
// time, so one plan serves every MultiFab pair on the same layout.
struct CopyPlan {
    std::vector<CopyItem> items;
    std::int64_t zones = 0;         // total zones moved per execution
    std::int64_t offrank_zones = 0; // zones crossing simulated ranks
};

// Interior/boundary partition of one fab's valid region at a given
// stencil width: `interior` is the largest box whose stencils of that
// width never read a ghost zone, and `shell` is the disjoint cover of
// the rest of the valid box (up to 6 boxes from boxDiff). An overlap
// site sweeps `interior` while the halo exchange is in flight and the
// `shell` after finish(). A whole fab (no interior worth overlapping)
// has an empty interior and its valid box as the one shell box.
struct FabRegions {
    // boxDiff of a box and a box inside it has at most this many pieces.
    static constexpr std::size_t kMaxShell = 6;
    Box interior;
    std::vector<Box> shell;
};

// The halo-overlap decision of every split-phase site (Castro level 0,
// the MG smoother, MAESTRO advection), made once per (BoxArray, stencil)
// by CopierCache::buildInteriorPartition. `overlaps` is true when at
// least one fab has an interior; when it is false there is nothing to
// hide the exchange behind and MultiFab::FillBoundary_nowait(part, ...)
// runs it eagerly.
struct PartitionPlan {
    int stencil = 0;
    bool overlaps = false;
    std::vector<FabRegions> fabs;
};

enum class CopierKind : int {
    FillBoundary = 0,
    ParallelCopy = 1,
    AverageDown = 2,
    InterpGather = 3,
};

struct CopierKey {
    std::uint64_t dst_ba = 0;
    std::uint64_t src_ba = 0;
    std::uint64_t dst_dm = 0;
    std::uint64_t src_dm = 0;
    int ng = 0;    // ghost width
    int ratio = 0; // coarsening ratio (AverageDown, InterpGather)
    IntVect period{0, 0, 0};
    CopierKind kind = CopierKind::FillBoundary;
    bool operator==(const CopierKey&) const = default;
};

struct CopierKeyHash {
    std::size_t operator()(const CopierKey& k) const;
};

// Process-wide plan cache. Entries live exactly as long as their layouts:
// every BoxArray / DistributionMapping in a key shares a LayoutId with its
// copies, and when the last copy of any of them dies the cache forgets the
// entries keyed on it (a regrid or rebalance mints fresh identities, so
// its plans are built anew and the old layout's plans go with it). Plans
// are immutable shared_ptrs: a plan stays valid while a caller executes it
// even if its layout dies concurrently.
class CopierCache {
public:
    using PlanPtr = std::shared_ptr<const CopyPlan>;

    // Never destroyed, so a layout that dies during static destruction can
    // still forget its entries.
    static CopierCache& instance();

    // Memoized plan for MultiFab::FillBoundary on (ba, dm, ng, period).
    PlanPtr fillBoundary(const BoxArray& ba, const DistributionMapping& dm, int ng,
                         const Periodicity& period);
    // Memoized plan for dst.ParallelCopy(src, ..., dst_ng, period).
    PlanPtr parallelCopy(const BoxArray& dst_ba, const DistributionMapping& dst_dm,
                         const BoxArray& src_ba, const DistributionMapping& src_dm,
                         int dst_ng, const Periodicity& period);
    // Memoized (crse fab, fine fab, coarse region under fine) triples for
    // averageDown; dst_box == src_box == the coarsened under-region.
    PlanPtr averageDown(const BoxArray& crse_ba, const BoxArray& fine_ba, int ratio);

    // Uncached builders (the cold path; public so tests and benches can
    // time a fresh pattern build or bypass memoization).
    static PlanPtr buildFillBoundary(const BoxArray& ba, const std::vector<int>& ranks,
                                     int ng, const Periodicity& period);
    static PlanPtr buildParallelCopy(const BoxArray& dst_ba,
                                     const std::vector<int>& dst_ranks,
                                     const BoxArray& src_ba,
                                     const std::vector<int>& src_ranks, int dst_ng,
                                     const Periodicity& period);
    static PlanPtr buildAverageDown(const BoxArray& crse_ba, const BoxArray& fine_ba,
                                    int ratio);

    using GatherPtr = std::shared_ptr<const GatherPlan>;

    // Memoized coarse gather of fillPatchTwoLevels' interpolation: one
    // scratch per fine fab, coarsen(grow(fine_ba[i], dst_ng), ratio)
    // grown by the one-zone slope stencil, gathering crse_ba's valid data
    // with its periodic images. Cached in its own table with its own
    // counters (gather_* in Stats), like the partitions below.
    GatherPtr interpGather(const BoxArray& fine_ba, const BoxArray& crse_ba, int ratio,
                           int dst_ng, const Periodicity& crse_period);
    static GatherPtr buildInterpGather(const BoxArray& fine_ba, const BoxArray& crse_ba,
                                       int ratio, int dst_ng,
                                       const Periodicity& crse_period);

    using PartitionPtr = std::shared_ptr<const PartitionPlan>;

    // Memoized interior/boundary partition of every fab of `ba` at the
    // given stencil width. Cached in its own table with its own counters
    // (partition_* in Stats) so the exact hit/miss accounting of the copy
    // plans is untouched.
    PartitionPtr interiorPartition(const BoxArray& ba, int stencil);
    // Uncached builder (the cold path) and the one home of the overlap
    // rule: a fab overlaps only when its interior holds at least an
    // eighth of its zones (for a cube, half its width). A thinner
    // interior hides almost no work, while the split still costs a second
    // sweep pass and more launches (one more per kernel for Castro hydro,
    // one launch set per shell box for MAESTRO advection), so such a fab
    // is whole.
    static PartitionPtr buildInteriorPartition(const BoxArray& ba, int stencil);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t plans = 0;       // currently resident
        double build_seconds = 0.0;  // cumulative cold plan-build time
        std::uint64_t partition_hits = 0;
        std::uint64_t partition_misses = 0;
        std::size_t partitions = 0;  // currently resident partition plans
        std::uint64_t gather_hits = 0;
        std::uint64_t gather_misses = 0;
        std::size_t gathers = 0;     // currently resident gather plans
    };
    Stats stats() const;
    void resetStats();
    void clear(); // drop every plan (stats survive)

    // Drop every plan, gather and partition keyed on layout identity
    // `id`. Called by ~LayoutId for identities this cache marked.
    void forget(std::uint64_t id);

    // Memoization toggle: when disabled every call rebuilds its plan (the
    // same plan-based execution path, just never cached) — used by tests
    // to compare cached vs uncached behavior.
    void setEnabled(bool enabled);
    bool enabled() const;

private:
    CopierCache() = default;
    // The lookup shared by the three tables. `layouts` are the key's
    // participants; a null one (a default-built layout) makes the lookup
    // uncacheable. A hit returns the resident entry; a miss builds outside
    // the lock (timed into m_build_seconds when `timed`) and inserts.
    template <typename Map, typename Build>
    typename Map::mapped_type lookup(Map& map, const typename Map::key_type& key,
                                     std::initializer_list<const LayoutId*> layouts,
                                     std::uint64_t& hits, std::uint64_t& misses,
                                     bool timed, Build&& build);

    struct PartitionKey {
        std::uint64_t ba = 0;
        int stencil = 0;
        bool operator==(const PartitionKey&) const = default;
    };
    struct PartitionKeyHash {
        std::size_t operator()(const PartitionKey& k) const {
            return std::hash<std::uint64_t>{}(k.ba) ^
                   (std::hash<int>{}(k.stencil) * 0x9e3779b97f4a7c15ULL);
        }
    };

    mutable std::mutex m_mutex;
    std::unordered_map<CopierKey, PlanPtr, CopierKeyHash> m_plans;
    std::unordered_map<PartitionKey, PartitionPtr, PartitionKeyHash> m_partitions;
    std::unordered_map<CopierKey, GatherPtr, CopierKeyHash> m_gathers;
    std::uint64_t m_hits = 0, m_misses = 0;
    std::uint64_t m_partition_hits = 0, m_partition_misses = 0;
    std::uint64_t m_gather_hits = 0, m_gather_misses = 0;
    double m_build_seconds = 0.0;
    bool m_enabled = true;
};

} // namespace exa
