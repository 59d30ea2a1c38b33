#pragma once

#include "castro/state.hpp"
#include "mesh/step_guard.hpp"
#include "microphysics/burner.hpp"

#include <cstdint>
#include <string>

namespace exa::castro {

// Post-step validation of a conserved (StateLayout) state: NaN/Inf,
// non-positive density or energy, species-sum drift beyond 1e-6, and burn
// failures above opt.burn_failure_tol. Castro's validate() runs it on
// every level.
ValidationReport validateState(const MultiFab& state, int nspec,
                               const StepGuardOptions& opt,
                               const BurnGridStats* burn = nullptr,
                               const std::string& label = "");

// ClampAndWarn repair: every zone that is non-finite or has non-positive
// density or energy is overwritten (all components) from the pre-step
// snapshot fab; the caller then re-enforces thermodynamic consistency.
// Returns the number of zones repaired.
std::int64_t repairInvalidZones(MultiFab& state, const MultiFab& snap);

} // namespace exa::castro
