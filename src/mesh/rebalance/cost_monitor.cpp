#include "mesh/rebalance/cost_monitor.hpp"

#include <algorithm>
#include <numeric>

namespace exa {

CostMonitor::Level& CostMonitor::level(int lev) {
    if (lev >= static_cast<int>(m_levels.size())) {
        m_levels.resize(lev + 1);
    }
    return m_levels[lev];
}

const CostMonitor::Level* CostMonitor::levelIfPresent(int lev) const {
    if (lev < 0 || lev >= static_cast<int>(m_levels.size())) return nullptr;
    return &m_levels[lev];
}

void CostMonitor::resetLevel(int lev, std::size_t nboxes) {
    Level& L = level(lev);
    L.work.assign(nboxes, 0.0);
    L.ema.assign(nboxes, 0.0);
    L.committed = 0;
}

void CostMonitor::addWork(int lev, int fab, double units) {
    if (lev < 0 || fab < 0) return;
    std::vector<double>& work = level(lev).work;
    if (fab >= static_cast<int>(work.size())) work.resize(fab + 1, 0.0);
    work[fab] += units;
}

void CostMonitor::commitStep(int lev) {
    if (lev < 0) return;
    Level& L = level(lev);
    L.ema.resize(L.work.size(), 0.0);
    for (std::size_t i = 0; i < L.work.size(); ++i) {
        // The first sample seeds the EMA rather than blending with zero,
        // so warm-up steps are not under-weighted.
        L.ema[i] = L.committed == 0
                       ? L.work[i]
                       : kEmaAlpha * L.work[i] + (1.0 - kEmaAlpha) * L.ema[i];
        L.work[i] = 0.0;
    }
    ++L.committed;
}

int CostMonitor::committedSteps(int lev) const {
    const Level* L = levelIfPresent(lev);
    return L ? L->committed : 0;
}

std::vector<double> CostMonitor::costs(int lev) const {
    const Level* L = levelIfPresent(lev);
    if (L == nullptr || L->committed == 0) return {};
    std::vector<double> cost = L->ema;
    // Positive floor: an idle box still occupies memory and halo traffic
    // on its rank, and zero weights degenerate the knapsack ordering.
    const double mean =
        cost.empty() ? 0.0
                     : std::accumulate(cost.begin(), cost.end(), 0.0) / cost.size();
    const double floor = mean > 0 ? 1.0e-6 * mean : 1.0;
    for (double& c : cost) c = std::max(c, floor);
    return cost;
}

} // namespace exa
