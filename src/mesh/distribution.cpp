#include "mesh/distribution.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <sstream>

namespace exa {

std::uint64_t mortonCode(int x, int y, int z) {
    auto split = [](std::uint64_t v) {
        // Spread the low 21 bits of v so they occupy every third bit.
        v &= 0x1fffff;
        v = (v | v << 32) & 0x1f00000000ffffULL;
        v = (v | v << 16) & 0x1f0000ff0000ffULL;
        v = (v | v << 8) & 0x100f00f00f00f00fULL;
        v = (v | v << 4) & 0x10c30c30c30c30c3ULL;
        v = (v | v << 2) & 0x1249249249249249ULL;
        return v;
    };
    return split(static_cast<std::uint64_t>(std::max(x, 0))) |
           (split(static_cast<std::uint64_t>(std::max(y, 0))) << 1) |
           (split(static_cast<std::uint64_t>(std::max(z, 0))) << 2);
}

DistributionMapping::DistributionMapping(const BoxArray& ba, int nranks,
                                         Strategy strategy)
    : m_nranks(std::max(1, nranks)), m_id(std::make_shared<const LayoutId>()) {
    // Cold-start path: weigh boxes by zone count. Integer zone counts are
    // exact in double, so this is bit-identical to the historical integer
    // accumulation.
    std::vector<double> cost(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        cost[i] = static_cast<double>(ba[i].numPts());
    }
    build(ba, cost, strategy);
}

DistributionMapping::DistributionMapping(const BoxArray& ba, int nranks,
                                         const std::vector<double>& cost,
                                         Strategy strategy)
    : m_nranks(std::max(1, nranks)), m_id(std::make_shared<const LayoutId>()) {
    build(ba, cost, strategy);
}

DistributionMapping::DistributionMapping(std::vector<int> rank_table, int nranks)
    : m_rank(std::move(rank_table)), m_nranks(std::max(1, nranks)),
      m_id(std::make_shared<const LayoutId>()) {
    for (const int r : m_rank) {
        assert(r >= 0 && r < m_nranks);
        (void)r;
    }
}

void DistributionMapping::build(const BoxArray& ba, const std::vector<double>& cost,
                                Strategy strategy) {
    const std::size_t n = ba.size();
    assert(cost.size() == n);
    m_rank.assign(n, 0);
    if (n == 0) return;

    switch (strategy) {
        case Strategy::RoundRobin: {
            for (std::size_t i = 0; i < n; ++i) {
                m_rank[i] = static_cast<int>(i % m_nranks);
            }
            break;
        }
        case Strategy::Sfc: {
            // Order boxes along a Morton curve through their centers, then
            // hand out contiguous chunks with approximately equal cost.
            std::vector<std::size_t> order(n);
            std::iota(order.begin(), order.end(), 0);
            // Shift all centers to non-negative coordinates first.
            const Box mb = ba.minimalBox();
            std::vector<std::uint64_t> code(n);
            for (std::size_t i = 0; i < n; ++i) {
                const Box& b = ba[i];
                int cx = (b.smallEnd(0) + b.bigEnd(0)) / 2 - mb.smallEnd(0);
                int cy = (b.smallEnd(1) + b.bigEnd(1)) / 2 - mb.smallEnd(1);
                int cz = (b.smallEnd(2) + b.bigEnd(2)) / 2 - mb.smallEnd(2);
                code[i] = mortonCode(cx, cy, cz);
            }
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) { return code[a] < code[b]; });
            const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
            const double per_rank = total / m_nranks;
            double acc = 0;
            int rank = 0;
            for (std::size_t idx : order) {
                // Advance rank when this rank has met its share, but never
                // beyond the final rank.
                while (rank < m_nranks - 1 && acc >= per_rank * (rank + 1)) {
                    ++rank;
                }
                m_rank[idx] = rank;
                acc += cost[idx];
            }
            break;
        }
        case Strategy::Knapsack: {
            // Largest cost first onto the least-loaded rank; ties broken by
            // box index so the mapping is deterministic for equal weights.
            std::vector<std::size_t> order(n);
            std::iota(order.begin(), order.end(), 0);
            std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
                if (cost[a] != cost[b]) return cost[a] > cost[b];
                return a < b;
            });
            using Load = std::pair<double, int>; // (cost, rank)
            std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
            for (int r = 0; r < m_nranks; ++r) heap.emplace(0.0, r);
            for (std::size_t idx : order) {
                auto [load, r] = heap.top();
                heap.pop();
                m_rank[idx] = r;
                heap.emplace(load + cost[idx], r);
            }
            break;
        }
    }
}

std::vector<int> DistributionMapping::boxesPerRank() const {
    std::vector<int> count(m_nranks, 0);
    for (int r : m_rank) ++count[r];
    return count;
}

std::vector<std::int64_t> DistributionMapping::zonesPerRank(const BoxArray& ba) const {
    std::vector<std::int64_t> zones(m_nranks, 0);
    for (std::size_t i = 0; i < m_rank.size(); ++i) {
        zones[m_rank[i]] += ba[i].numPts();
    }
    return zones;
}

std::vector<double> DistributionMapping::costPerRank(
    const std::vector<double>& cost) const {
    assert(cost.size() == m_rank.size());
    std::vector<double> per(m_nranks, 0.0);
    for (std::size_t i = 0; i < m_rank.size(); ++i) {
        per[m_rank[i]] += cost[i];
    }
    return per;
}

double DistributionMapping::imbalance(const BoxArray& ba, const DistributionMapping& dm) {
    std::vector<double> cost(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        cost[i] = static_cast<double>(ba[i].numPts());
    }
    return imbalance(cost, dm);
}

double DistributionMapping::imbalance(const std::vector<double>& cost,
                                      const DistributionMapping& dm) {
    if (cost.empty() || dm.size() == 0) return 1.0;
    const auto per = dm.costPerRank(cost);
    const double mx = *std::max_element(per.begin(), per.end());
    const double mean =
        std::accumulate(per.begin(), per.end(), 0.0) / dm.numRanks();
    return mean > 0 ? mx / mean : 1.0;
}

std::string DistributionMapping::describeBalance(const std::vector<double>& cost,
                                                 const DistributionMapping& dm) {
    std::ostringstream os;
    if (cost.size() != dm.size() || dm.size() == 0) {
        os << "balance: (no cost data)";
        return os.str();
    }
    const auto per = dm.costPerRank(cost);
    const double total = std::accumulate(per.begin(), per.end(), 0.0);
    const double mean = total / dm.numRanks();
    os << "balance:";
    for (int r = 0; r < dm.numRanks(); ++r) {
        const double share = total > 0 ? 100.0 * per[r] / total : 0.0;
        os << " r" << r << "=" << per[r] << " (" << share << "%)";
    }
    const double mx = *std::max_element(per.begin(), per.end());
    os << "; max/mean = " << (mean > 0 ? mx / mean : 1.0);
    return os.str();
}

} // namespace exa
