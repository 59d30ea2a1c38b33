#pragma once

// The one driver interface. Castro and Maestro implement it, and
// everything that drives a simulation from outside — the resilience
// supervisor and campaign harness, the ensemble scenarios — takes it
// directly. Which MultiFabs make up a driver's state is written down
// once, in checkpointFields(): checkpoint, restore, residency accounting
// and the driver's own retry snapshot and rebalance all read it.

#include "core/events.hpp"
#include "mesh/distribution.hpp"
#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"
#include "mesh/step_guard.hpp"
#include "microphysics/burner.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace exa {

// One driver-owned MultiFab to persist. Fabs a driver can rebuild from
// its fields (e.g. Castro's gravity) are not listed; finishRestore()
// rebuilds them on the restored layout.
struct CheckpointField {
    MultiFab* mf = nullptr;
    Geometry geom;
    std::string name; // slot subdirectory (e.g. "state", "phi", "state_lev1")
};

class Driver {
public:
    virtual ~Driver() = default;

    // The driver's own stability limit (CFL or equivalent).
    virtual Real estimateDt() const = 0;
    // Advance one step of dt (under the StepGuard when it is enabled).
    virtual BurnGridStats step(Real dt) = 0;

    Real time() const { return m_time; }
    int stepCount() const { return m_nstep; }
    // Rewind the clock to a checkpoint's time and step count, after the
    // checkpoint fields have been restored and before finishRestore().
    // Replay from here is deterministic, so a recovered run is
    // bit-identical to an uninterrupted one.
    void resetTime(Real t, int nstep) {
        m_time = t;
        m_nstep = nstep;
    }

    // The prognostic state of each level, coarse to fine: what a step
    // advances (zone counts) and what identifies a trajectory (CRCs).
    virtual std::vector<const MultiFab*> levelStates() const = 0;
    // The MultiFabs a step reads that the driver cannot rebuild, in a fixed
    // order; the field names are the checkpoint slot names. Fetched afresh
    // at every use, so an AMR driver returns its current hierarchy.
    virtual std::vector<CheckpointField> checkpointFields() = 0;

    using DmBuilder =
        std::function<DistributionMapping(const BoxArray&, int lev)>;
    // Rebuild the driver on a checkpoint's grids when a regrid has made the
    // live layouts differ: per-field boxes in checkpointFields() order,
    // mappings from dmBuilder. Drivers whose grids never change cannot.
    virtual void remakeForRestore(const std::vector<std::vector<Box>>& boxes,
                                  const DmBuilder& dmBuilder) {
        (void)boxes;
        (void)dmBuilder;
        throw std::runtime_error(
            "live layout differs from checkpoint and the driver cannot remake");
    }
    // Fixup after every field holds restored data and resetTime() has run.
    virtual void finishRestore() {}

    // StepGuard retry accounting (zeros when the guard is disabled).
    virtual const RetryStats& retryStats() const = 0;
    // Lifetime multigrid counters of the driver's gravity solves.
    virtual MgEvent mgTotals() const { return {}; }

protected:
    Real m_time = 0.0;
    int m_nstep = 0;
};

} // namespace exa
