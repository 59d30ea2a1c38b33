#include "mesh/copier_cache.hpp"

#include "core/timer.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace exa {

namespace {

std::uint64_t mix64(std::uint64_t x) {
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

IntVect periodVect(const Periodicity& p) {
    return {p.period(0), p.period(1), p.period(2)};
}

// One counter for BoxArray and DistributionMapping identities, so an id
// in any key field names exactly one layout.
std::atomic<std::uint64_t> g_last_layout_id{0};

} // namespace

std::size_t CopierKeyHash::operator()(const CopierKey& k) const {
    std::uint64_t h = mix64(k.dst_ba);
    h = mix64(h ^ k.src_ba);
    h = mix64(h ^ k.dst_dm);
    h = mix64(h ^ k.src_dm);
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.ng)) |
                   (static_cast<std::uint64_t>(static_cast<int>(k.kind)) << 32)));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.period.x)) |
                   (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.period.y))
                    << 32)));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.period.z)) |
                   (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.ratio)) << 32)));
    return static_cast<std::size_t>(h);
}

// --- layout identities ----------------------------------------------------

LayoutId::LayoutId() : m_value(++g_last_layout_id) {}

LayoutId::~LayoutId() {
    if (m_keyed.load(std::memory_order_acquire)) CopierCache::instance().forget(m_value);
}

CopierCache& CopierCache::instance() {
    static CopierCache* const cache = new CopierCache();
    return *cache;
}

// --- builders (the cold path) -------------------------------------------
//
// Each builder preserves the exact item order of the legacy rescanning
// loops — destination fab outermost, then periodic shift, then ascending
// source fab — so plan execution is bit-identical to the pre-cache code
// even where copies overlap.

CopierCache::PlanPtr CopierCache::buildFillBoundary(const BoxArray& ba,
                                                    const std::vector<int>& ranks,
                                                    int ng,
                                                    const Periodicity& period) {
    auto plan = std::make_shared<CopyPlan>();
    const auto shifts = period.shifts();
    const int n = static_cast<int>(ba.size());
    for (int i = 0; i < n; ++i) {
        const Box dst_region = grow(ba[i], ng);
        for (const IntVect& s : shifts) {
            for (const auto& [j, src_box] : ba.intersections(shift(dst_region, -s))) {
                if (j == i && s == IntVect::zero()) continue;
                CopyItem item;
                item.dst_fab = i;
                item.src_fab = j;
                item.src_box = src_box;
                item.dst_box = shift(src_box, s);
                item.dst_rank = ranks.empty() ? 0 : ranks[i];
                item.src_rank = ranks.empty() ? 0 : ranks[j];
                plan->zones += src_box.numPts();
                if (!item.local()) plan->offrank_zones += src_box.numPts();
                plan->items.push_back(item);
            }
        }
    }
    return plan;
}

CopierCache::PlanPtr CopierCache::buildParallelCopy(
    const BoxArray& dst_ba, const std::vector<int>& dst_ranks, const BoxArray& src_ba,
    const std::vector<int>& src_ranks, int dst_ng, const Periodicity& period) {
    auto plan = std::make_shared<CopyPlan>();
    const auto shifts = period.shifts();
    const int n = static_cast<int>(dst_ba.size());
    for (int i = 0; i < n; ++i) {
        const Box dst_region = grow(dst_ba[i], dst_ng);
        for (const IntVect& s : shifts) {
            for (const auto& [j, src_box] :
                 src_ba.intersections(shift(dst_region, -s))) {
                CopyItem item;
                item.dst_fab = i;
                item.src_fab = j;
                item.src_box = src_box;
                item.dst_box = shift(src_box, s);
                item.dst_rank = dst_ranks.empty() ? 0 : dst_ranks[i];
                item.src_rank = src_ranks.empty() ? 0 : src_ranks[j];
                plan->zones += src_box.numPts();
                if (!item.local()) plan->offrank_zones += src_box.numPts();
                plan->items.push_back(item);
            }
        }
    }
    return plan;
}

CopierCache::PlanPtr CopierCache::buildAverageDown(const BoxArray& crse_ba,
                                                   const BoxArray& fine_ba,
                                                   int ratio) {
    auto plan = std::make_shared<CopyPlan>();
    BoxArray cfba = fine_ba;
    cfba.coarsen(ratio);
    const int n = static_cast<int>(crse_ba.size());
    for (int ci = 0; ci < n; ++ci) {
        for (const auto& [fi, under] : cfba.intersections(crse_ba[ci])) {
            CopyItem item;
            item.dst_fab = ci;
            item.src_fab = fi;
            item.dst_box = under;
            item.src_box = under;
            plan->zones += under.numPts();
            plan->items.push_back(item);
        }
    }
    return plan;
}

CopierCache::GatherPtr CopierCache::buildInterpGather(const BoxArray& fine_ba,
                                                     const BoxArray& crse_ba, int ratio,
                                                     int dst_ng,
                                                     const Periodicity& crse_period) {
    std::vector<Box> boxes;
    boxes.reserve(fine_ba.size());
    for (const Box& b : fine_ba.boxes()) {
        boxes.push_back(coarsen(grow(b, dst_ng), ratio).grow(1)); // + slope stencil
    }
    auto plan = std::make_shared<GatherPlan>();
    plan->add(boxes, crse_ba, crse_period);
    return plan;
}

// --- memoized front ends -------------------------------------------------

template <typename Map, typename Build>
typename Map::mapped_type CopierCache::lookup(Map& map, const typename Map::key_type& key,
                                              std::initializer_list<const LayoutId*> layouts,
                                              std::uint64_t& hits, std::uint64_t& misses,
                                              bool timed, Build&& build) {
    const bool cacheable =
        std::none_of(layouts.begin(), layouts.end(),
                     [](const LayoutId* id) { return id == nullptr; });
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        if (m_enabled && cacheable) {
            auto it = map.find(key);
            if (it != map.end()) {
                ++hits;
                return it->second;
            }
        }
        ++misses;
    }
    // Build outside the lock: plan construction is the expensive part and
    // must not serialize against concurrent lookups. The caller holds every
    // layout in the key, so none of them can die before the insert.
    WallTimer t;
    typename Map::mapped_type entry = build();
    const double dt = t.seconds();
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        if (timed) m_build_seconds += dt;
        if (m_enabled && cacheable && map.try_emplace(key, entry).second) {
            for (const LayoutId* id : layouts) id->markKeyed();
        }
    }
    return entry;
}

CopierCache::PlanPtr CopierCache::fillBoundary(const BoxArray& ba,
                                               const DistributionMapping& dm, int ng,
                                               const Periodicity& period) {
    assert(ba.size() == dm.size());
    CopierKey key;
    key.dst_ba = key.src_ba = ba.id();
    key.dst_dm = key.src_dm = dm.id();
    key.ng = ng;
    key.period = periodVect(period);
    key.kind = CopierKind::FillBoundary;
    return lookup(m_plans, key, {ba.identity(), dm.identity()}, m_hits, m_misses, true,
                  [&] { return buildFillBoundary(ba, dm.ranks(), ng, period); });
}

CopierCache::PlanPtr CopierCache::parallelCopy(const BoxArray& dst_ba,
                                               const DistributionMapping& dst_dm,
                                               const BoxArray& src_ba,
                                               const DistributionMapping& src_dm,
                                               int dst_ng, const Periodicity& period) {
    CopierKey key;
    key.dst_ba = dst_ba.id();
    key.src_ba = src_ba.id();
    key.dst_dm = dst_dm.id();
    key.src_dm = src_dm.id();
    key.ng = dst_ng;
    key.period = periodVect(period);
    key.kind = CopierKind::ParallelCopy;
    return lookup(m_plans, key,
                  {dst_ba.identity(), src_ba.identity(), dst_dm.identity(),
                   src_dm.identity()},
                  m_hits, m_misses, true, [&] {
                      return buildParallelCopy(dst_ba, dst_dm.ranks(), src_ba,
                                               src_dm.ranks(), dst_ng, period);
                  });
}

CopierCache::PlanPtr CopierCache::averageDown(const BoxArray& crse_ba,
                                              const BoxArray& fine_ba, int ratio) {
    CopierKey key;
    key.dst_ba = crse_ba.id();
    key.src_ba = fine_ba.id();
    key.ratio = ratio;
    key.kind = CopierKind::AverageDown;
    return lookup(m_plans, key, {crse_ba.identity(), fine_ba.identity()}, m_hits,
                  m_misses, true, [&] { return buildAverageDown(crse_ba, fine_ba, ratio); });
}

CopierCache::GatherPtr CopierCache::interpGather(const BoxArray& fine_ba,
                                                 const BoxArray& crse_ba, int ratio,
                                                 int dst_ng,
                                                 const Periodicity& crse_period) {
    CopierKey key;
    key.dst_ba = fine_ba.id();
    key.src_ba = crse_ba.id();
    key.ng = dst_ng;
    key.ratio = ratio;
    key.period = periodVect(crse_period);
    key.kind = CopierKind::InterpGather;
    return lookup(m_gathers, key, {fine_ba.identity(), crse_ba.identity()}, m_gather_hits,
                  m_gather_misses, false, [&] {
                      return buildInterpGather(fine_ba, crse_ba, ratio, dst_ng, crse_period);
                  });
}

CopierCache::PartitionPtr CopierCache::interiorPartition(const BoxArray& ba,
                                                         int stencil) {
    return lookup(m_partitions, PartitionKey{ba.id(), stencil}, {ba.identity()},
                  m_partition_hits, m_partition_misses, false,
                  [&] { return buildInteriorPartition(ba, stencil); });
}

CopierCache::PartitionPtr CopierCache::buildInteriorPartition(const BoxArray& ba,
                                                              int stencil) {
    auto part = std::make_shared<PartitionPlan>();
    part->stencil = stencil;
    part->fabs.resize(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        const Box& vb = ba[i];
        FabRegions& fr = part->fabs[i];
        const Box interior = grow(vb, -stencil);
        if (interior.ok() && 8 * interior.numPts() >= vb.numPts()) {
            fr.interior = interior;
            fr.shell = boxDiff(vb, interior);
            part->overlaps = true;
        } else {
            // Whole fab: fr.interior stays default-constructed (empty),
            // which callers skip, and the valid box is the shell.
            fr.shell = {vb};
        }
        assert(fr.shell.size() <= FabRegions::kMaxShell);
    }
    return part;
}

CopierCache::Stats CopierCache::stats() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    Stats s;
    s.hits = m_hits;
    s.misses = m_misses;
    s.plans = m_plans.size();
    s.build_seconds = m_build_seconds;
    s.partition_hits = m_partition_hits;
    s.partition_misses = m_partition_misses;
    s.partitions = m_partitions.size();
    s.gather_hits = m_gather_hits;
    s.gather_misses = m_gather_misses;
    s.gathers = m_gathers.size();
    return s;
}

void CopierCache::resetStats() {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_hits = m_misses = 0;
    m_partition_hits = m_partition_misses = 0;
    m_gather_hits = m_gather_misses = 0;
    m_build_seconds = 0.0;
}

void CopierCache::clear() {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_plans.clear();
    m_partitions.clear();
    m_gathers.clear();
}

void CopierCache::forget(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto keyed = [id](const auto& e) {
        const CopierKey& k = e.first;
        return k.dst_ba == id || k.src_ba == id || k.dst_dm == id || k.src_dm == id;
    };
    std::erase_if(m_plans, keyed);
    std::erase_if(m_gathers, keyed);
    std::erase_if(m_partitions, [id](const auto& e) { return e.first.ba == id; });
}

void CopierCache::setEnabled(bool enabled) {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_enabled = enabled;
}

bool CopierCache::enabled() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_enabled;
}

} // namespace exa
