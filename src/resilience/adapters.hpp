#pragma once

// SupervisedDriver adapters for the three simulation drivers. Each binds
// a *caller-owned* driver by reference — the returned bundle must not
// outlive it.

#include "castro/castro.hpp"
#include "maestro/maestro.hpp"
#include "resilience/supervisor.hpp"

namespace exa::resilience {

// Castro (any max_level): one field per level; remakeForRestore rebuilds
// the hierarchy on checkpoint grids after a regrid, finishRestore resets
// the old-time companions and flux registers and rebuilds gravity. Every
// gravity type recomputes the acceleration from the density alone
// (Poisson solves are cold), so recovery is bit-identical for all of them.
SupervisedDriver makeSupervisedDriver(castro::Castro& c);

// Maestro: checkpoints state, phi (the projection's initial guess — part
// of the bit-identical trajectory), and divu.
SupervisedDriver makeSupervisedDriver(maestro::Maestro& m);

} // namespace exa::resilience
