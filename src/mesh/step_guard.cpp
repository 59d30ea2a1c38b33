#include "mesh/step_guard.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace exa {

namespace {
// Depth of nested StepGuard::advance() calls (Castro guards all
// levels in one scope; the counter tolerates nesting anyway).
std::atomic<int> g_advance_depth{0};

struct AdvanceScope {
    AdvanceScope() { g_advance_depth.fetch_add(1, std::memory_order_relaxed); }
    ~AdvanceScope() { g_advance_depth.fetch_sub(1, std::memory_order_relaxed); }
};
} // namespace

bool StepGuard::advanceActive() {
    return g_advance_depth.load(std::memory_order_relaxed) > 0;
}

void ValidationReport::add(std::string check, std::string detail) {
    issues.push_back({std::move(check), std::move(detail)});
}

std::string ValidationReport::summary() const {
    if (issues.empty()) return "";
    std::ostringstream os;
    for (std::size_t i = 0; i < issues.size(); ++i) {
        if (i > 0) os << "; ";
        os << issues[i].check << " (" << issues[i].detail << ")";
    }
    return os.str();
}

std::size_t StateSnapshot::capture(const MultiFab& src) {
    MultiFab copy(src.boxArray(), src.distributionMap(), src.nComp(), src.nGrow());
    MultiFab::Copy(copy, src, 0, 0, src.nComp(), src.nGrow());
    for (std::size_t f = 0; f < src.size(); ++f) {
        m_bytes += src.fabbox(static_cast<int>(f)).numPts() * src.nComp() *
                   static_cast<std::int64_t>(sizeof(Real));
    }
    m_copies.push_back(std::move(copy));
    return m_copies.size() - 1;
}

void StateSnapshot::restoreTo(std::size_t i, MultiFab& dst) const {
    const MultiFab& src = m_copies.at(i);
    if (!(dst.boxArray() == src.boxArray()) || dst.nComp() != src.nComp() ||
        dst.nGrow() != src.nGrow()) {
        throw StepRetryError(
            "StateSnapshot::restoreTo: state layout changed during a guarded "
            "advance (regrid inside a retry scope is not allowed)");
    }
    MultiFab::Copy(dst, src, 0, 0, src.nComp(), src.nGrow());
}

StepGuard::Outcome StepGuard::advance(Real dt, const SnapshotFn& snapshot,
                                      const RestoreFn& restore,
                                      const AdvanceFn& advanceFn,
                                      const ValidateFn& validate,
                                      const DegradeFn& degrade) {
    const AdvanceScope in_advance;
    ++m_stats.steps_guarded;
    m_stats.last_attempts = 0;
    m_stats.last_subcycles = 1;

    StateSnapshot snap;
    snapshot(snap);
    m_stats.snapshot_bytes = snap.bytes();

    bool advance_threw = false;
    int nsub = 1;
    for (int attempt = 0; attempt <= m_opt.max_retries; ++attempt, nsub *= 2) {
        if (attempt > 0) {
            restore(snap);
            ++m_stats.retries;
            if (m_opt.verbose) {
                std::fprintf(stderr,
                             "[exa-retry] step invalid (%s): retrying as %d "
                             "substeps of dt/%d\n",
                             m_stats.last_failure.c_str(), nsub, nsub);
            }
        }
        ++m_stats.last_attempts;
        m_stats.last_subcycles = nsub;

        advance_threw = false;
        try {
            advanceFn(dt / nsub, nsub);
        } catch (const std::exception& e) {
            advance_threw = true;
            m_stats.last_failure = std::string("advance threw: ") + e.what();
            continue;
        }
        const ValidationReport rep = validate();
        if (rep.ok()) {
            return attempt == 0 ? Outcome::Clean : Outcome::Retried;
        }
        m_stats.last_failure = rep.summary();
    }

    // Retries exhausted. The state holds the final failed attempt, except
    // when that attempt died mid-advance — then only the snapshot is
    // coherent, so restore it before degrading.
    ++m_stats.degraded;
    if (advance_threw) restore(snap);
    if (m_opt.policy == RetryPolicy::HardError) {
        throw StepRetryError("step retries exhausted after " +
                             std::to_string(m_stats.last_attempts) +
                             " attempts: " + m_stats.last_failure);
    }
    if (m_opt.verbose) {
        std::fprintf(stderr,
                     "[exa-retry] retries exhausted (%s): degrading per "
                     "clamp-and-warn\n",
                     m_stats.last_failure.c_str());
    }
    degrade(snap, advance_threw);
    return Outcome::Degraded;
}

namespace {

std::string zoneDetail(const std::string& label, int fab, int i, int j, int k,
                       int comp, Real value) {
    std::ostringstream os;
    if (!label.empty()) os << label << ", ";
    os << "fab " << fab << ", zone (" << i << "," << j << "," << k << "), comp "
       << comp << ", value " << value;
    return os.str();
}

} // namespace

void checkFinite(const MultiFab& s, ValidationReport& rep, const std::string& label) {
    for (std::size_t f = 0; f < s.size(); ++f) {
        auto a = s.const_array(static_cast<int>(f));
        const Box& vb = s.box(static_cast<int>(f));
        for (int n = 0; n < s.nComp(); ++n) {
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        const Real v = a(i, j, k, n);
                        if (!std::isfinite(v)) {
                            rep.add("non-finite",
                                    zoneDetail(label, static_cast<int>(f), i, j, k,
                                               n, v));
                            goto next_fab; // first offender per fab is enough
                        }
                    }
                }
            }
        }
    next_fab:;
    }
}

void checkAbove(const MultiFab& s, int comp, Real floor, const char* check,
                ValidationReport& rep, const std::string& label) {
    for (std::size_t f = 0; f < s.size(); ++f) {
        auto a = s.const_array(static_cast<int>(f));
        const Box& vb = s.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real v = a(i, j, k, comp);
                    // NaN compares false and would slip below: leave it to
                    // checkFinite, only flag real sub-floor values here.
                    if (std::isfinite(v) && v <= floor) {
                        rep.add(check, zoneDetail(label, static_cast<int>(f), i, j,
                                                  k, comp, v));
                        goto next_fab;
                    }
                }
            }
        }
    next_fab:;
    }
}

} // namespace exa
