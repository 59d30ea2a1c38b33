#pragma once

// SupervisedDriver adapters for the three simulation drivers. Each binds
// a *caller-owned* driver by reference — the returned bundle must not
// outlive it.

#include "castro/castro.hpp"
#include "castro/castro_amr.hpp"
#include "maestro/maestro.hpp"
#include "resilience/supervisor.hpp"

namespace exa::resilience {

// Single-level Castro: checkpoints the conserved state; the gravity fabs
// (defined after the first solve) ride along as companions so a shrink
// keeps them co-located, but are recomputed rather than persisted. Every
// gravity type rebuilds the acceleration from the density alone (Poisson
// solves are cold), so recovery is bit-identical for all of them.
SupervisedDriver makeSupervisedDriver(castro::Castro& c);

// Maestro: checkpoints state, phi (the projection's initial guess — part
// of the bit-identical trajectory), and divu.
SupervisedDriver makeSupervisedDriver(maestro::Maestro& m);

// Subcycled AMR Castro: one field per level; remakeForRestore rebuilds the
// hierarchy on checkpoint grids after a regrid, finishRestore resets the
// old-time companions and flux registers.
SupervisedDriver makeSupervisedDriver(castro::CastroAmr& a);

} // namespace exa::resilience
