#include "castro/validate.hpp"

#include "core/parallel_for.hpp"

#include <cmath>
#include <sstream>

namespace exa::castro {

namespace {

// The state thresholds: every component must be finite, rho and rho E
// must exceed these floors, and the species fractions must sum to 1
// within kSpeciesSumRtol.
constexpr Real kMinDensity = 0.0;
constexpr Real kMinEnergy = 0.0;
constexpr Real kSpeciesSumRtol = 1.0e-6;

// Single fused pass answering "is anything wrong anywhere?". The
// detailed per-check scans below only run (to locate and describe the
// offender) when this says no — keeping the armed-but-clean guard cost
// to one parallel sweep of the state instead of four serial ones.
bool stateLooksClean(const MultiFab& s, int nspec) {
    const int nc = s.nComp();
    for (std::size_t f = 0; f < s.size(); ++f) {
        auto a = s.const_array(static_cast<int>(f));
        const Real bad =
            ParallelReduceMax(s.box(static_cast<int>(f)), [=](int i, int j, int k) {
                for (int n = 0; n < nc; ++n) {
                    if (!std::isfinite(a(i, j, k, n))) return 1.0_rt;
                }
                const Real rho = a(i, j, k, StateLayout::URHO);
                const Real rhoE = a(i, j, k, StateLayout::UEDEN);
                if (rho <= kMinDensity || rhoE <= kMinEnergy) return 1.0_rt;
                Real xsum = 0.0;
                for (int n = 0; n < nspec; ++n) {
                    xsum += a(i, j, k, StateLayout::UFS + n);
                }
                xsum /= rho;
                if (!(std::abs(xsum - 1.0) <= kSpeciesSumRtol)) return 1.0_rt;
                return 0.0_rt;
            });
        if (bad > 0.0) return false;
    }
    return true;
}

// First zone per fab whose species fractions have drifted off sum == 1 by
// more than kSpeciesSumRtol. Zones the consistency enforcement has already floored to
// tiny densities are skipped: their fractions are meaningless, and the
// density check owns that failure mode.
void checkSpeciesSum(const MultiFab& s, int nspec, ValidationReport& rep,
                     const std::string& label) {
    for (std::size_t f = 0; f < s.size(); ++f) {
        auto a = s.const_array(static_cast<int>(f));
        const Box& vb = s.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real rho = a(i, j, k, StateLayout::URHO);
                    if (!(rho > kMinDensity)) continue;
                    Real xsum = 0.0;
                    for (int n = 0; n < nspec; ++n) {
                        xsum += a(i, j, k, StateLayout::UFS + n);
                    }
                    xsum /= rho;
                    if (!(std::abs(xsum - 1.0) <= kSpeciesSumRtol)) {
                        std::ostringstream os;
                        if (!label.empty()) os << label << ", ";
                        os << "fab " << f << ", zone (" << i << "," << j << ","
                           << k << "), sum X = " << xsum;
                        rep.add("species-sum-drift", os.str());
                        goto next_fab;
                    }
                }
            }
        }
    next_fab:;
    }
}

} // namespace

ValidationReport validateState(const MultiFab& state, int nspec,
                               const StepGuardOptions& opt,
                               const BurnGridStats* burn,
                               const std::string& label) {
    ValidationReport rep;
    if (!stateLooksClean(state, nspec)) {
        // Something is wrong somewhere: locate and describe it.
        checkFinite(state, rep, label);
        checkAbove(state, StateLayout::URHO, kMinDensity, "negative-density", rep,
                   label);
        checkAbove(state, StateLayout::UEDEN, kMinEnergy, "negative-energy", rep,
                   label);
        checkSpeciesSum(state, nspec, rep, label);
    }
    if (burn != nullptr && burn->failures > 0) {
        const double frac =
            burn->zones > 0
                ? static_cast<double>(burn->failures) / burn->zones
                : 1.0;
        if (frac > opt.burn_failure_tol) {
            std::ostringstream os;
            if (!label.empty()) os << label << ", ";
            os << burn->failures << " of " << burn->zones
               << " zones failed to burn";
            const std::string where = burn->describeFailure();
            if (!where.empty()) os << "; first at " << where;
            rep.add("burn-failures", os.str());
        }
    }
    return rep;
}

std::int64_t repairInvalidZones(MultiFab& state, const MultiFab& snap) {
    std::int64_t repaired = 0;
    const int nc = state.nComp();
    for (std::size_t f = 0; f < state.size(); ++f) {
        auto a = state.array(static_cast<int>(f));
        auto s = snap.const_array(static_cast<int>(f));
        const Box& vb = state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    bool bad = false;
                    for (int n = 0; n < nc && !bad; ++n) {
                        bad = !std::isfinite(a(i, j, k, n));
                    }
                    const Real rho = a(i, j, k, StateLayout::URHO);
                    const Real rhoE = a(i, j, k, StateLayout::UEDEN);
                    bad = bad || !(rho > kMinDensity) || !(rhoE > kMinEnergy);
                    if (bad) {
                        for (int n = 0; n < nc; ++n) {
                            a(i, j, k, n) = s(i, j, k, n);
                        }
                        ++repaired;
                    }
                }
            }
        }
    }
    return repaired;
}

} // namespace exa::castro
