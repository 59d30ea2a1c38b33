#include "mesh/rebalance/rebalancer.hpp"

#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "mesh/step_guard.hpp"

#include <cstring>
#include <limits>
#include <sstream>

namespace exa {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::min();

// Bit-compare the full grown box of every fab against its pre-migration
// clone (Backend::Debug verification pass).
bool bitIdentical(const MultiFab& a, const MultiFab& b, std::string* where) {
    for (std::size_t f = 0; f < a.size(); ++f) {
        auto x = a.const_array(static_cast<int>(f));
        auto y = b.const_array(static_cast<int>(f));
        const Box gb = a.fabbox(static_cast<int>(f));
        for (int n = 0; n < a.nComp(); ++n) {
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k) {
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j) {
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i) {
                        const Real va = x(i, j, k, n);
                        const Real vb = y(i, j, k, n);
                        // memcmp semantics: NaN != NaN must still count as
                        // identical only when the bit patterns match.
                        if (std::memcmp(&va, &vb, sizeof(Real)) != 0) {
                            if (where != nullptr) {
                                std::ostringstream os;
                                os << "fab " << f << ", zone (" << i << "," << j
                                   << "," << k << "), comp " << n << ": " << vb
                                   << " -> " << va;
                                *where = os.str();
                            }
                            return false;
                        }
                    }
                }
            }
        }
    }
    return true;
}

} // namespace

void Rebalancer::noteRegrid(int lev, std::size_t nboxes) {
    m_monitor.resetLevel(lev, nboxes);
    if (lev >= static_cast<int>(m_last_step.size())) {
        m_last_step.resize(lev + 1, kNever);
    }
    m_last_step[lev] = kNever;
}

RebalanceDecision Rebalancer::step(int lev, std::int64_t step_index,
                                   const std::vector<MultiFab*>& fabs) {
    RebalanceDecision d;
    if (!fabs.empty() && fabs.front()->isDefined()) {
        // Hydro work floor: every zone costs ~hydro_zone_work units per
        // step regardless of burning, so burn-free boxes keep a realistic
        // floor.
        const BoxArray& ba = fabs.front()->boxArray();
        for (std::size_t f = 0; f < ba.size(); ++f) {
            m_monitor.addWork(lev, static_cast<int>(f),
                              m_opt.hydro_zone_work *
                                  static_cast<double>(ba[f].numPts()));
        }
    }
    m_monitor.commitStep(lev);
    if (!m_opt.enabled) {
        d.reason = "disabled";
        return d;
    }
    if (fabs.empty() || !fabs.front()->isDefined()) {
        d.reason = "no registered state";
        return d;
    }
    if (StepGuard::advanceActive()) {
        // Migrating between a StepGuard snapshot and its possible restore
        // would desynchronize the rollback point. Skip on every backend;
        // diagnose the caller under Backend::Debug.
        if (ExecConfig::backend() == Backend::Debug) {
            debug::reportViolation(
                "Rebalancer", "rebalance-during-retry",
                "Rebalancer::step called while a StepGuard::advance is on "
                "the stack (level " +
                    std::to_string(lev) + ", step " +
                    std::to_string(step_index) + ")");
        }
        d.reason = "rebalance-during-retry";
        return d;
    }
    if (m_monitor.committedSteps(lev) < m_opt.warmup_steps) {
        d.reason = "warming up";
        return d;
    }
    if (lev >= static_cast<int>(m_last_step.size())) {
        m_last_step.resize(lev + 1, kNever);
    }
    if (m_last_step[lev] != kNever &&
        step_index - m_last_step[lev] < m_opt.min_interval) {
        d.reason = "min-interval hold";
        return d;
    }

    const MultiFab& canon = *fabs.front();
    const BoxArray& ba = canon.boxArray();
    const DistributionMapping& dm = canon.distributionMap();
    const std::vector<double> cost = m_monitor.costs(lev);
    if (cost.size() != ba.size()) {
        d.reason = "cost/BoxArray size mismatch";
        return d;
    }

    d.measured_imbalance = DistributionMapping::imbalance(cost, dm);
    if (d.measured_imbalance < m_opt.imbalance_trigger) {
        d.reason = "below trigger";
        return d;
    }

    const DistributionMapping candidate(ba, dm.numRanks(), cost,
                                        DistributionMapping::Strategy::Knapsack);
    d.predicted_imbalance = DistributionMapping::imbalance(cost, candidate);
    if (d.predicted_imbalance > d.measured_imbalance * kHysteresis) {
        d.reason = "hysteresis: candidate buys too little";
        return d;
    }

    // Migrate. Under Backend::Debug keep pre-migration clones and verify
    // bit-identity afterwards — this is also what catches the
    // migration-payload-corrupt fault site.
    const bool verify = ExecConfig::backend() == Backend::Debug;
    std::vector<MultiFab> pre;
    if (verify) {
        pre.reserve(fabs.size());
        for (const MultiFab* mf : fabs) {
            MultiFab copy(mf->boxArray(), mf->distributionMap(), mf->nComp(),
                          mf->nGrow());
            MultiFab::Copy(copy, *mf, 0, 0, mf->nComp(), mf->nGrow());
            pre.push_back(std::move(copy));
        }
    }

    for (std::size_t i = 0; i < fabs.size(); ++i) {
        const auto st = fabs[i]->Redistribute(candidate, "rebalance");
        d.boxes_moved += st.boxes_moved;
        d.bytes_moved += st.bytes;
        if (verify) {
            std::string where;
            if (!bitIdentical(*fabs[i], pre[i], &where)) {
                debug::reportViolation(
                    "Rebalancer", "migration-data-corruption",
                    "fab set " + std::to_string(i) +
                        " not bit-identical after migration: " + where);
            }
        }
    }

    d.performed = true;
    m_last_step[lev] = step_index;
    ++m_stats.rebalances;
    m_stats.boxes_moved += d.boxes_moved;
    m_stats.bytes_moved += d.bytes_moved;

    if (events::active()) {
        events::publish(RebalanceEvent{lev, d.boxes_moved, d.bytes_moved,
                                       d.measured_imbalance,
                                       d.predicted_imbalance});
    }

    {
        std::ostringstream os;
        os << "level " << lev << " step " << step_index << ": imbalance "
           << d.measured_imbalance << " -> " << d.predicted_imbalance << ", "
           << d.boxes_moved << " boxes / " << d.bytes_moved
           << " bytes migrated";
        d.reason = os.str();
    }
    return d;
}

} // namespace exa
