#pragma once

#include "castro/driver.hpp"
#include "castro/gravity.hpp"
#include "castro/hydro.hpp"
#include "castro/react.hpp"
#include "mesh/amr_core.hpp"
#include "mesh/flux_register.hpp"
#include "mesh/phys_bc.hpp"
#include "mesh/rebalance/rebalancer.hpp"
#include "mesh/step_guard.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace exa::castro {

struct CastroOptions {
    Real cfl = 0.4;
    DomainBC bc = DomainBC::allOutflow();
    GravityType gravity = GravityType::None;
    // Also fixes the state's ghost width: stencilWidth(reconstruction).
    Reconstruction reconstruction = Reconstruction::PLM;
    bool do_react = false;
    ReactOptions react;
    Real small_dens = 1.0e-12;
    // Step retry: snapshot / validate / rollback-with-dt-backoff around
    // every step (Castro's use_retry analogue). Off by default.
    StepGuardOptions guard;
    // Cost-driven load balancing: measure per-box burn/hydro cost and
    // migrate state to a cost-weighted mapping when the imbalance
    // warrants it. Off by default.
    RebalanceOptions rebalance;
};

// The Castro-mini driver: compressible reacting hydrodynamics with
// self-gravity on an AMR hierarchy, advanced by Strang splitting
// (half-burn, hydro+gravity, half-burn) and a two-stage SSP-RK2
// method-of-lines hydro update. A uniform-grid run is this driver at
// max_level = 0; with refinement on it is the configuration of the
// paper's Section V science run ("the stars themselves are refined by a
// factor of 4 at all points in the run ... when any material heats up to
// 1e9 K, we refine it by an additional factor of 4").
//
// Levels advance subcycled (production Castro's default): a recursive
// timeStep(lev, time, dt) advances level lev once, then level lev+1 takes
// ref_ratio substeps of dt/ref_ratio, with fine ghosts filled from
// time-interpolated coarse data (every level below max_level keeps an
// old-time state). At each sync point the FluxRegister repays the
// coarse/fine flux mismatch (Reflux) and fine data is averaged down, so
// the hierarchy conserves to round-off while the coarse levels do
// ref_ratio^lev fewer advances than the finest. Setting `subcycle =
// false` takes every level at the finest dt on the same code path — one
// substep per recursion, registers still balancing the books.
//
// Level 0 covers the domain, so it fills its ghosts in place: its halo
// exchange is in flight while the interior of every fab its partition
// overlaps is swept. Finer levels fill a ghost-bearing copy from
// their own data and the coarser level.
class Castro final : public AmrCore, public Driver {
public:
    // Initial condition per zone: the functor fills rho, T (or p), velocity
    // and mass fractions X; the driver derives the rest through the EOS.
    struct InitialZone {
        Real rho = 1.0;
        Real T = 1.0;
        Real p = -1.0; // if >= 0, p is used instead of T
        std::array<Real, 3> vel{0, 0, 0};
        std::vector<Real> X;
    };
    using InitFn = std::function<InitialZone(Real x, Real y, Real z)>;
    // tag(level, geometry, state, tags): set tags != 0 to refine. Unused
    // at max_level = 0.
    using TagFn =
        std::function<void(int lev, const Geometry&, const MultiFab&, MultiFab&)>;

    // Throws std::invalid_argument for Monopole gravity with max_level >
    // 0: the monopole is a single-level construct.
    Castro(const Geometry& level0_geom, const AmrInfo& info,
           const ReactionNetwork& net, const Eos& eos, const CastroOptions& opt,
           InitFn init, TagFn tag = {});

    // Build level 0 (BoxArray(domain).maxSize(max_grid_size) on an SFC
    // mapping over info.nranks), then regrid until the hierarchy is
    // stable.
    void init();

    MultiFab& state(int lev = 0) { return m_state[lev]; }
    const MultiFab& state(int lev = 0) const { return m_state[lev]; }
    // The resolved options this driver runs with (factories like
    // WdCollisionParams::build flip burn/rebalance defaults; tests read
    // them back here).
    const CastroOptions& options() const { return m_opt; }
    const ReactionNetwork& network() const { return m_net; }
    const Eos& eos() const { return m_eos; }

    // CFL dt *for level 0*: with subcycling each level contributes its
    // CFL limit times ref_ratio^lev (its substeps shrink by the same
    // factor); without, the finest level binds the whole hierarchy.
    Real estimateDt() const override;

    // Advance the whole hierarchy by dt (level 0 takes one step of dt;
    // finer levels subcycle); regrids every regrid_interval steps.
    // Returns total burn stats over all levels. With opt.guard.enabled
    // the whole-hierarchy step runs under the StepGuard retry loop —
    // snapshots hold every level's state and time levels, so a rollback
    // rewinds a partially-subcycled hierarchy; an invalid state is
    // re-advanced as 2, 4, ... substeps that still sum to dt and count as
    // one step. Regridding is deferred to after the step is accepted, so
    // a rollback never faces a changed BoxArray.
    BurnGridStats step(Real dt) override;

    // --- restore path (resilience) -------------------------------------
    std::vector<const MultiFab*> levelStates() const override;
    // One field per level, "state_lev<N>".
    std::vector<CheckpointField> checkpointFields() override;
    // Rebuild the hierarchy on a checkpoint's per-level grids when a
    // regrid has made the live layouts differ from the checkpoint's:
    // clears extra levels, resets the level count, and defines each
    // level's state (zeroed — the caller fills it from disk) on
    // BoxArray(level_boxes[lev]) with dmBuilder(ba, lev).
    void remakeForRestore(const std::vector<std::vector<Box>>& level_boxes,
                          const DmBuilder& dmBuilder) override;
    // After every level's state fab holds checkpoint data and resetTime
    // has run: rebuild the per-level companions (old-time state = state at
    // m_time, flux registers redefined — their contents are dead between
    // sync points, so a step boundary needs only fresh ones), sync
    // AmrCore's mappings with the restored states, and rebuild gravity.
    // Every gravity type recomputes the acceleration from the density
    // alone (Poisson solves are cold), so recovery is bit-identical.
    void finishRestore() override;

    int regrid_interval = 4;
    // Subcycle in time (fine levels take ref_ratio substeps of dt/r).
    bool subcycle = true;
    // Repay coarse/fine flux mismatches through the FluxRegister at sync
    // points. Off: averageDown alone (which leaks conservation at the
    // coarse/fine boundary).
    bool reflux = true;

    // Retry accounting for the guarded steps of this run (zeros when the
    // guard is disabled).
    const RetryStats& retryStats() const override { return m_guard.stats(); }

    // Self-gravity (opt.gravity). step() solves once per coarse step;
    // solveGravity() runs the same solve on the current hierarchy.
    void solveGravity();
    Gravity& gravity() { return m_gravity; }
    const Gravity& gravity() const { return m_gravity; }
    MgEvent mgTotals() const override { return m_gravity.mgTotals(); }

    // Load-balancer access (cost monitor, decision stats). Each level is
    // rebalanced independently after the step (and its cost history is
    // reset whenever a regrid rebuilds the level).
    Rebalancer& rebalancer() { return m_rebalancer; }
    const Rebalancer& rebalancer() const { return m_rebalancer; }

    // Conservation diagnostics: mask-aware hierarchy sums (each zone
    // counted once, at the finest level covering it), correct even
    // mid-substep when coarse and fine are out of sync.
    Real totalMass() const;
    std::array<Real, 3> totalMomentum() const;
    Real totalEnergy() const;
    // At a sync point (after Reflux + averageDown) the masked hierarchy
    // sum and the level-0 shortcut sum must agree to round-off; step()
    // asserts this. False between sync points or after a partial repair.
    bool syncPointSumsAgree(Real rtol = 1.0e-11) const;

    // Extremes over every level.
    Real maxTemperature() const;
    Real maxDensity() const;
    // Location of the hottest zone (zone centers, physical coordinates).
    std::array<Real, 3> hottestZone() const;

    // The paper's numerical-stability diagnostic (Section V): minimum over
    // hot zones of (burning timescale) / (zonal sound-crossing time). A
    // value < 1 means zone-scale numerical runaway cannot be excluded.
    Real minBurnTimescaleRatio(Real T_threshold = 1.0e9) const;

    // Subcycling diagnostics: advances taken by a level so far (with
    // subcycling the finest level leads by ref_ratio^lev), and the flux
    // register owned by lev (the lev-1 / lev interface), for tests and
    // the E13 bench.
    std::int64_t advanceCount(int lev) const { return m_advances[lev]; }
    const FluxRegister& fluxRegister(int lev) const { return m_flux_reg[lev]; }

    // Fill `dst` (valid+ghost) for level lev >= 1 from the level's state
    // and the coarser level, then apply physical BCs.
    void fillPatch(int lev, MultiFab& dst);

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
    // Component sum over the hierarchy, weighted by zone volume, counting
    // only zones not covered by a finer level.
    Real maskedSum(int comp) const;
    // Level 0's RHS of `src` (which carries ghost zones): fill the ghosts
    // in place and sweep every fab. The exchange is in flight while the
    // interior of each fab large enough to pay for the split
    // (CopierCache::buildInteriorPartition) is swept; the boundary shells
    // follow after delivery and physical BCs. Each molRhsRegions call is timed per fab
    // for the cost monitor, so halo waits never count as hydro cost.
    void level0Rhs(MultiFab& src, MultiFab& dudt, std::array<MultiFab, 3>* fluxes,
                   CostMonitor* cost);
    // One unguarded hierarchy advance of size dt starting at t0 (no
    // hierarchy-time bookkeeping, no regrid).
    BurnGridStats advanceOnce(Real t0, Real dt);
    void initLevelData(int lev, MultiFab& mf);
    void applyPhysBC(int lev, MultiFab& mf);
    // Fill dst for level lev >= 1 with the coarse source time-interpolated
    // to `t` between the coarse level's old and new states (clamped to
    // the bracket).
    void fillPatchAtTime(int lev, Real t, const MultiFab& fine_src, MultiFab& dst);
    // (Re)create the per-level companions of m_state[lev]: the old-time
    // state (a copy of the current state at m_time) below max_level and,
    // for lev > 0, the flux register against lev-1.
    void resetLevelCompanions(int lev);
    // End-of-step rebalance hook (after regrid): per level, feed the
    // hydro work channel, let the Rebalancer decide, and keep AmrCore's
    // mapping in sync with any migrated state.
    void maybeRebalance();

    const ReactionNetwork& m_net;
    Eos m_eos;
    CastroOptions m_opt;
    StateLayout m_layout;
    InitFn m_init;
    TagFn m_tag;
    std::vector<MultiFab> m_state;
    // Old-time states, for lev < max_level only: their one reader is
    // fillPatchAtTime(lev + 1), which interpolates coarse ghosts anywhere
    // in [m_t_old, m_t_new]. advanceLevel copies the state into them
    // before updating. Valid zones only — nothing reads their ghosts.
    std::vector<MultiFab> m_state_old;
    std::vector<Real> m_t_old, m_t_new;
    // m_flux_reg[lev] guards the lev-1 / lev interface (unused at 0).
    std::vector<FluxRegister> m_flux_reg;
    std::vector<std::int64_t> m_advances;
    Gravity m_gravity;
    StepGuard m_guard;
    Rebalancer m_rebalancer;
};

} // namespace exa::castro
