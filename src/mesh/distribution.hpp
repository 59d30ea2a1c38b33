#pragma once

#include "mesh/box_array.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace exa {

// Assignment of boxes to (simulated) MPI ranks. On Summit the codes run
// one rank per GPU — six ranks per node — so the mapping here, combined
// with the node width, determines both load balance and which halo
// messages cross the network. Strategies mirror AMReX's: round-robin, a
// space-filling-curve mapping (locality-preserving, the default), and a
// knapsack mapping (balance by zone count).
class DistributionMapping {
public:
    enum class Strategy { RoundRobin, Sfc, Knapsack };

    DistributionMapping() = default;
    DistributionMapping(const BoxArray& ba, int nranks,
                        Strategy strategy = Strategy::Sfc);

    // Cost-weighted builder: cost[i] is the measured (or modeled) expense
    // of box i. Sfc keeps the Morton walk but cuts chunks by cumulative
    // cost; Knapsack bins largest-cost-first onto the least-loaded rank.
    // The zone-count constructor above is the cold-start path and
    // delegates here with cost = numPts, so equal weights reproduce the
    // unweighted mapping exactly. RoundRobin ignores the weights.
    DistributionMapping(const BoxArray& ba, int nranks,
                        const std::vector<double>& cost,
                        Strategy strategy = Strategy::Knapsack);

    // Explicit rank table: box i lives on rank_table[i]. This is the
    // shrink-recovery path — the supervisor builds a cost-weighted mapping
    // over n_alive packed slots and remaps each slot onto a surviving rank
    // id, so the table is arbitrary rather than strategy-shaped. Every
    // entry must satisfy 0 <= rank_table[i] < nranks.
    DistributionMapping(std::vector<int> rank_table, int nranks);

    int operator[](std::size_t box_index) const { return m_rank[box_index]; }
    std::size_t size() const { return m_rank.size(); }
    int numRanks() const { return m_nranks; }
    const std::vector<int>& ranks() const { return m_rank; }

    // Stable identity for communication-metadata caching (CopierCache),
    // mirroring BoxArray::id(): copies share the id, every freshly built
    // mapping gets a new one, so equal ids imply an identical rank table.
    // A default-constructed mapping has id 0 and no identity.
    std::uint64_t id() const { return m_id ? m_id->value() : 0; }
    const LayoutId* identity() const { return m_id.get(); }

    // Number of boxes owned by each rank.
    std::vector<int> boxesPerRank() const;
    // Zones owned by each rank (load-balance diagnostic).
    std::vector<std::int64_t> zonesPerRank(const BoxArray& ba) const;
    // Summed cost owned by each rank under per-box weights.
    std::vector<double> costPerRank(const std::vector<double>& cost) const;

    // Max-over-ranks zones divided by mean zones: 1.0 = perfect balance.
    // This is the quantity behind the paper's "6 ranks don't divide 64
    // boxes" load-balancing discussion. Delegates to the cost-weighted
    // overload with cost = numPts.
    static double imbalance(const BoxArray& ba, const DistributionMapping& dm);
    // Max-over-ranks cost divided by mean cost under per-box weights.
    static double imbalance(const std::vector<double>& cost,
                            const DistributionMapping& dm);

    // Human-readable balance report: per-rank cost and share plus the
    // max/mean ratio, for Rebalancer logging and the bench tables.
    static std::string describeBalance(const std::vector<double>& cost,
                                       const DistributionMapping& dm);

    bool operator==(const DistributionMapping& o) const {
        return m_id == o.m_id || (m_nranks == o.m_nranks && m_rank == o.m_rank);
    }

private:
    void build(const BoxArray& ba, const std::vector<double>& cost,
               Strategy strategy);

    std::vector<int> m_rank;
    int m_nranks = 1;
    std::shared_ptr<const LayoutId> m_id;
};

// Morton (Z-order) code of a non-negative 3-D index, for SFC ordering.
std::uint64_t mortonCode(int x, int y, int z);

} // namespace exa
