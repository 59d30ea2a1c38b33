#pragma once

#include "castro/castro.hpp"
#include "castro/gravity_amr.hpp"
#include "mesh/amr_core.hpp"
#include "mesh/flux_register.hpp"
#include "mesh/interp.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace exa::castro {

// Multi-level Castro: the AMR configuration of the paper's Section V
// science run ("the stars themselves are refined by a factor of 4 at all
// points in the run ... when any material heats up to 1e9 K, we refine it
// by an additional factor of 4").
//
// Levels advance subcycled (production Castro's default): a recursive
// timeStep(lev, time, dt) advances level lev once, then level lev+1 takes
// ref_ratio substeps of dt/ref_ratio, with fine ghosts filled from
// time-interpolated coarse data (each level keeps old- and new-time
// states). At each sync point the FluxRegister repays the coarse/fine
// flux mismatch (Reflux) and fine data is averaged down, so the hierarchy
// conserves to round-off while the coarse levels do ref_ratio^lev fewer
// advances than the finest. Setting `subcycle = false` recovers the old
// non-subcycled mode (every level takes the finest dt) on the same code
// path — one substep per recursion, registers still balancing the books.
class CastroAmr : public AmrCore {
public:
    // tag(level, geometry, state, tags): set tags != 0 to refine.
    using TagFn =
        std::function<void(int lev, const Geometry&, const MultiFab&, MultiFab&)>;

    CastroAmr(const Geometry& level0_geom, const AmrInfo& info,
              const ReactionNetwork& net, const Eos& eos, const CastroOptions& opt,
              Castro::InitFn init, TagFn tag);

    // Build level 0, then regrid until the hierarchy is stable.
    void init();

    MultiFab& state(int lev) { return m_state[lev]; }
    const MultiFab& state(int lev) const { return m_state[lev]; }

    // CFL dt *for level 0*: with subcycling each level contributes its
    // CFL limit times ref_ratio^lev (its substeps shrink by the same
    // factor); without, the finest level binds the whole hierarchy.
    Real estimateDt() const;

    // Advance the whole hierarchy by dt (level 0 takes one step of dt;
    // finer levels subcycle); regrids every regrid_interval steps.
    // Returns total burn stats over all levels. With opt.guard.enabled
    // the whole-hierarchy step runs under the StepGuard retry loop —
    // snapshots hold every level's state and time levels, so a rollback
    // rewinds a partially-subcycled hierarchy — and regridding is
    // deferred to after the step is accepted, so a rollback never faces
    // a changed BoxArray.
    BurnGridStats step(Real dt);

    Real time() const { return m_time; }
    int stepCount() const { return m_nstep; }

    // --- restore path (resilience) -------------------------------------
    // Rewind the hierarchy clock to a checkpoint's time and step count
    // (after the level states have been restored, before finishRestore).
    void resetTime(Real t, int nstep) {
        m_time = t;
        m_nstep = nstep;
    }
    // Rebuild the hierarchy on a checkpoint's per-level grids when a
    // regrid has made the live layouts differ from the checkpoint's:
    // clears extra levels, resets the level count, and defines each
    // level's state (zeroed — the caller fills it from disk) on
    // BoxArray(level_boxes[lev]) with dmBuilder(ba, lev).
    void remakeForRestore(
        const std::vector<std::vector<Box>>& level_boxes,
        const std::function<DistributionMapping(const BoxArray&, int lev)>&
            dmBuilder);
    // After every level's state fab holds checkpoint data and resetTime
    // has run: rebuild the per-level companions (old-time state = state at
    // m_time, flux registers redefined — their contents are dead between
    // sync points, so a step boundary needs only fresh ones) and sync
    // AmrCore's mappings with the restored states.
    void finishRestore();

    int regrid_interval = 4;
    // Subcycle in time (fine levels take ref_ratio substeps of dt/r).
    bool subcycle = true;
    // Repay coarse/fine flux mismatches through the FluxRegister at sync
    // points. Off: averageDown alone (the pre-register behavior, which
    // leaks conservation at the coarse/fine boundary).
    bool reflux = true;

    // Retry accounting for the guarded steps of this run.
    const RetryStats& retryStats() const { return m_guard.stats(); }

    // Composite-grid self-gravity (opt.gravity == Poisson only; Monopole
    // is a single-level construct and the ctor rejects it for the AMR
    // driver).
    bool hasGravity() const { return m_gravity != nullptr; }
    AmrGravity& gravityAmr() { return *m_gravity; }
    const AmrGravity& gravityAmr() const { return *m_gravity; }
    // Lifetime MG counters of the gravity solver (zeros without gravity);
    // feeds the supervisor / ensemble summaries.
    MgEvent mgTotals() const {
        return m_gravity ? m_gravity->totals() : MgEvent{};
    }

    // Load-balancer access (cost monitor, decision stats). Each level is
    // rebalanced independently after the step (and its cost history is
    // reset whenever a regrid rebuilds the level).
    Rebalancer& rebalancer() { return m_rebalancer; }
    const Rebalancer& rebalancer() const { return m_rebalancer; }

    // Conservation diagnostics: mask-aware hierarchy sums (each zone
    // counted once, at the finest level covering it), correct even
    // mid-substep when coarse and fine are out of sync.
    Real totalMass() const;
    Real totalEnergy() const;
    Real maxTemperature() const;
    // Component sum over the hierarchy, weighted by zone volume, counting
    // only zones not covered by a finer level.
    Real maskedSum(int comp) const;
    // At a sync point (after Reflux + averageDown) the masked hierarchy
    // sum and the level-0 shortcut sum must agree to round-off; step()
    // asserts this. False between sync points or after a partial repair.
    bool syncPointSumsAgree(Real rtol = 1.0e-11) const;

    // Subcycling diagnostics: advances taken by a level so far (with
    // subcycling the finest level leads by ref_ratio^lev), and the flux
    // register owned by lev (the lev-1 / lev interface), for tests and
    // the E13 bench.
    std::int64_t advanceCount(int lev) const { return m_advances[lev]; }
    const FluxRegister& fluxRegister(int lev) const { return m_flux_reg[lev]; }

    // Fill `dst` (valid+ghost) for level lev from {level data, coarser
    // level}, then apply physical BCs. dst must not be the state itself.
    // The coarse source is time-interpolated to `t` between the coarse
    // level's old and new states (clamped to the bracket).
    void fillPatch(int lev, MultiFab& dst);
    void fillPatchFrom(int lev, const MultiFab& fine_src, MultiFab& dst);
    void fillPatchAtTime(int lev, Real t, const MultiFab& fine_src, MultiFab& dst);

protected:
    void MakeNewLevelFromScratch(int lev, const BoxArray& ba,
                                 const DistributionMapping& dm) override;
    void MakeNewLevelFromCoarse(int lev, const BoxArray& ba,
                                const DistributionMapping& dm) override;
    void RemakeLevel(int lev, const BoxArray& ba,
                     const DistributionMapping& dm) override;
    void ClearLevel(int lev) override;
    void ErrorEst(int lev, MultiFab& tags) override;

private:
    // Recursive subcycled advance: level lev takes one step [time,
    // time+dt] (Strang half-burn, RK2 hydro with register accumulation,
    // half-burn), then lev+1 takes its substeps, then the sync point
    // (Reflux + averageDown + enforceConsistency) reconciles the pair.
    void timeStep(int lev, Real time, Real dt, BurnGridStats& burn,
                  CostMonitor* cost);
    void advanceLevel(int lev, Real time, Real dt, BurnGridStats& burn,
                      CostMonitor* cost);
    // One unguarded hierarchy advance of size dt starting at t0 (no
    // hierarchy-time bookkeeping, no regrid).
    BurnGridStats advanceOnce(Real t0, Real dt);
    void initLevelData(int lev, MultiFab& mf);
    void applyPhysBC(int lev, MultiFab& mf);
    // (Re)create the per-level companions of m_state[lev]: the old-time
    // state (a copy of the current state at m_time) and, for lev > 0,
    // the flux register against lev-1.
    void resetLevelCompanions(int lev);
    // End-of-step rebalance hook (after regrid): per level, feed the
    // hydro work channel, let the Rebalancer decide, and keep AmrCore's
    // mapping in sync with any migrated state.
    void maybeRebalance();

    const ReactionNetwork& m_net;
    Eos m_eos;
    CastroOptions m_opt;
    StateLayout m_layout;
    Castro::InitFn m_init;
    TagFn m_tag;
    std::vector<MultiFab> m_state;
    // Old-time states: advanceLevel rotates state into these before
    // updating, so finer levels can interpolate coarse ghosts anywhere in
    // [m_t_old, m_t_new].
    std::vector<MultiFab> m_state_old;
    std::vector<Real> m_t_old, m_t_new;
    // m_flux_reg[lev] guards the lev-1 / lev interface (unused at 0).
    std::vector<FluxRegister> m_flux_reg;
    std::vector<std::int64_t> m_advances;
    std::unique_ptr<AmrGravity> m_gravity;
    StepGuard m_guard;
    Rebalancer m_rebalancer;
    Real m_time = 0.0;
    int m_nstep = 0;
};

} // namespace exa::castro
