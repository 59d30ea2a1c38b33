#pragma once

#include "castro/state.hpp"
#include "mesh/step_guard.hpp"
#include "microphysics/burner.hpp"

#include <cstdint>
#include <string>

namespace exa::castro {

// Post-step validation of a conserved (StateLayout) state against the
// StepGuard thresholds: NaN/Inf, density and energy floors, species-sum
// drift, and burn failures above the tolerated fraction. Shared by the
// Castro and Maestro drivers' validate callbacks.
ValidationReport validateState(const MultiFab& state, int nspec,
                               const StepGuardOptions& opt,
                               const BurnGridStats* burn = nullptr,
                               const std::string& label = "");

// ClampAndWarn repair: every zone that is non-finite or below the density/
// energy floors is overwritten (all components) from the pre-step snapshot
// fab; the caller then re-enforces thermodynamic consistency. Returns the
// number of zones repaired.
std::int64_t repairInvalidZones(MultiFab& state, const MultiFab& snap,
                                const StepGuardOptions& opt);

} // namespace exa::castro
