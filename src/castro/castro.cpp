#include "castro/castro.hpp"

#include "castro/validate.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/interp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace exa::castro {

Castro::Castro(const Geometry& level0_geom, const AmrInfo& info,
               const ReactionNetwork& net, const Eos& eos,
               const CastroOptions& opt, InitFn init, TagFn tag)
    : AmrCore(level0_geom, info),
      m_net(net),
      m_eos(eos),
      m_opt(opt),
      m_layout(net.nspec()),
      m_init(std::move(init)),
      m_tag(std::move(tag)),
      m_gravity(opt.gravity),
      m_guard(opt.guard),
      m_rebalancer(opt.rebalance) {
    if (opt.gravity == GravityType::Monopole && info.max_level > 0) {
        // The monopole is a single-level construct; a hierarchy couples
        // its levels through the composite Poisson solve only.
        throw std::invalid_argument(
            "Castro: Monopole gravity needs max_level = 0 (use Poisson)");
    }
    m_state.resize(info.max_level + 1);
    m_state_old.resize(info.max_level + 1);
    m_flux_reg.resize(info.max_level + 1);
    m_t_old.assign(info.max_level + 1, 0.0);
    m_t_new.assign(info.max_level + 1, 0.0);
    m_advances.assign(info.max_level + 1, 0);
}

void Castro::init() {
    initBaseLevel();
    // Regrid until the hierarchy stabilizes (new levels may tag further).
    for (int pass = 0; pass <= maxLevel(); ++pass) {
        const int before = finestLevel();
        regrid(0);
        if (finestLevel() == before) break;
    }
}

void Castro::initLevelData(int lev, MultiFab& mf) {
    const Geometry& g = geom(lev);
    const int nspec = m_net.nspec();
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto u = mf.array(static_cast<int>(b));
        const Box& vb = mf.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    auto z = m_init(g.cellCenter(0, i), g.cellCenter(1, j),
                                    g.cellCenter(2, k));
                    assert(static_cast<int>(z.X.size()) == nspec);
                    EosState s;
                    s.rho = z.rho;
                    s.abar = m_net.abar(z.X.data());
                    s.ye = m_net.ye(z.X.data());
                    if (z.p >= 0.0) {
                        s.p = z.p;
                        m_eos.rhoP(s);
                    } else {
                        s.T = z.T;
                        m_eos.rhoT(s);
                    }
                    const Real ke = 0.5 * (z.vel[0] * z.vel[0] + z.vel[1] * z.vel[1] +
                                           z.vel[2] * z.vel[2]);
                    u(i, j, k, StateLayout::URHO) = z.rho;
                    u(i, j, k, StateLayout::UMX) = z.rho * z.vel[0];
                    u(i, j, k, StateLayout::UMY) = z.rho * z.vel[1];
                    u(i, j, k, StateLayout::UMZ) = z.rho * z.vel[2];
                    u(i, j, k, StateLayout::UEDEN) = z.rho * (s.e + ke);
                    u(i, j, k, StateLayout::UTEMP) = s.T;
                    for (int n = 0; n < nspec; ++n) {
                        u(i, j, k, StateLayout::UFS + n) = z.rho * z.X[n];
                    }
                }
    }
}

void Castro::applyPhysBC(int lev, MultiFab& mf) {
    // Momentum components reflect oddly in their own direction.
    std::array<std::vector<int>, 3> odd;
    odd[0] = {StateLayout::UMX};
    odd[1] = {StateLayout::UMY};
    odd[2] = {StateLayout::UMZ};
    fillPhysicalBoundary(mf, geom(lev), m_opt.bc, odd);
}

void Castro::fillPatchAtTime(int lev, Real t, const MultiFab& fine_src,
                             MultiFab& dst) {
    assert(lev > 0);
    assert(&fine_src != &dst); // interpolation would clobber the source
    const int nc = m_layout.ncomp();
    const MultiFab& cnew = m_state[lev - 1];
    const MultiFab& cold = m_state_old[lev - 1];
    const Real t0 = m_t_old[lev - 1];
    const Real t1 = m_t_new[lev - 1];
    Real alpha = t1 > t0 ? (t - t0) / (t1 - t0) : 1.0;
    alpha = std::clamp(alpha, 0.0, 1.0);
    if (!cold.isDefined()) alpha = 1.0;
    if (alpha >= 1.0) {
        fillPatchTwoLevels(dst, fine_src, cnew, geom(lev - 1), geom(lev),
                           refRatio(), 0, 0, nc, dst.nGrow());
    } else if (alpha <= 0.0) {
        fillPatchTwoLevels(dst, fine_src, cold, geom(lev - 1), geom(lev),
                           refRatio(), 0, 0, nc, dst.nGrow());
    } else {
        // Linear interpolation in time between the coarse time levels
        // (fillPatchTwoLevels reads only coarse valid zones, which is
        // exactly what LinComb fills).
        MultiFab ctmp(cnew.boxArray(), cnew.distributionMap(), nc, 0);
        MultiFab::LinComb(ctmp, 1.0 - alpha, cold, alpha, cnew, 0, nc);
        fillPatchTwoLevels(dst, fine_src, ctmp, geom(lev - 1), geom(lev),
                           refRatio(), 0, 0, nc, dst.nGrow());
    }
    applyPhysBC(lev, dst);
}

void Castro::fillPatch(int lev, MultiFab& dst) {
    fillPatchAtTime(lev, m_t_new[lev - 1], m_state[lev], dst);
}

void Castro::resetLevelCompanions(int lev) {
    const MultiFab& s = m_state[lev];
    if (lev < maxLevel()) {
        m_state_old[lev].define(s.boxArray(), s.distributionMap(), s.nComp(), 0);
        MultiFab::Copy(m_state_old[lev], s, 0, 0, s.nComp(), 0);
    }
    m_t_old[lev] = m_time;
    m_t_new[lev] = m_time;
    if (lev > 0) {
        m_flux_reg[lev].define(s.boxArray(), s.distributionMap(), refRatio(),
                               m_layout.ncomp());
    }
}

void Castro::MakeNewLevelFromScratch(int lev, const BoxArray& ba,
                                     const DistributionMapping& dm) {
    m_state[lev].define(ba, dm, m_layout.ncomp(),
                        stencilWidth(m_opt.reconstruction));
    m_state[lev].setVal(0.0);
    initLevelData(lev, m_state[lev]);
    resetLevelCompanions(lev);
    m_rebalancer.noteRegrid(lev, ba.size());
    m_gravity.noteRegrid();
}

void Castro::MakeNewLevelFromCoarse(int lev, const BoxArray& ba,
                                    const DistributionMapping& dm) {
    m_state[lev].define(ba, dm, m_layout.ncomp(),
                        stencilWidth(m_opt.reconstruction));
    m_state[lev].setVal(0.0);
    // Interpolate everything from the coarse level. Passing the (freshly
    // interpolated) level itself as the fine source makes the same-level
    // overwrite pass a no-op self-copy.
    fillPatchTwoLevels(m_state[lev], m_state[lev], m_state[lev - 1],
                       geom(lev - 1), geom(lev), refRatio(), 0, 0,
                       m_layout.ncomp());
    enforceConsistency(m_state[lev], m_net, m_eos, m_opt.small_dens);
    resetLevelCompanions(lev);
    m_rebalancer.noteRegrid(lev, ba.size());
    m_gravity.noteRegrid();
}

void Castro::RemakeLevel(int lev, const BoxArray& ba,
                         const DistributionMapping& dm) {
    MultiFab newstate(ba, dm, m_layout.ncomp(), stencilWidth(m_opt.reconstruction));
    newstate.setVal(0.0);
    // Old same-level data where available, coarse interpolation elsewhere.
    fillPatchTwoLevels(newstate, m_state[lev], m_state[lev - 1], geom(lev - 1),
                       geom(lev), refRatio(), 0, 0, m_layout.ncomp());
    m_state[lev] = std::move(newstate);
    enforceConsistency(m_state[lev], m_net, m_eos, m_opt.small_dens);
    resetLevelCompanions(lev);
    m_rebalancer.noteRegrid(lev, ba.size());
    m_gravity.noteRegrid();
}

std::vector<const MultiFab*> Castro::levelStates() const {
    std::vector<const MultiFab*> out;
    for (int lev = 0; lev <= finestLevel(); ++lev) out.push_back(&m_state[lev]);
    return out;
}

std::vector<CheckpointField> Castro::checkpointFields() {
    std::vector<CheckpointField> out;
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        out.push_back(
            {&m_state[lev], geom(lev), "state_lev" + std::to_string(lev)});
    }
    return out;
}

void Castro::remakeForRestore(const std::vector<std::vector<Box>>& level_boxes,
                              const DmBuilder& dmBuilder) {
    const int nlev = static_cast<int>(level_boxes.size());
    assert(nlev >= 1 && nlev <= maxLevel() + 1);
    for (int lev = finestLevel(); lev >= nlev; --lev) ClearLevel(lev);
    setFinestLevel(nlev - 1);
    for (int lev = 0; lev < nlev; ++lev) {
        BoxArray ba(level_boxes[lev]);
        m_ba[lev] = ba;
        m_dm[lev] = dmBuilder(ba, lev);
        m_state[lev].define(ba, m_dm[lev], m_layout.ncomp(),
                            stencilWidth(m_opt.reconstruction));
        m_state[lev].setVal(0.0);
        m_rebalancer.noteRegrid(lev, ba.size());
    }
    m_gravity.noteRegrid();
}

void Castro::finishRestore() {
    // Ghosts are not persisted and need no refill here: every consumer
    // (RK stages, fillPatchAtTime) reads coarse valid zones or refills
    // ghosts itself at the start of the next advance.
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        m_dm[lev] = m_state[lev].distributionMap();
        resetLevelCompanions(lev);
    }
    // The restored layouts may differ from the live ones, and any field
    // left from before the failure is stale: rebuild and re-solve at the
    // next step (replay stays bit-identical because solves are pure
    // functions of the restored density).
    m_gravity.noteRegrid();
}

void Castro::ClearLevel(int lev) {
    m_state[lev].clear();
    m_state_old[lev].clear();
    m_flux_reg[lev].clear();
    m_rebalancer.noteRegrid(lev, 0);
    m_gravity.noteRegrid();
}

void Castro::ErrorEst(int lev, MultiFab& tags) {
    if (m_tag) m_tag(lev, geom(lev), m_state[lev], tags);
}

Real Castro::estimateDt() const {
    // Level-0 dt: each level's CFL limit scaled back up by its substep
    // count, minimized over levels.
    Real dt = std::numeric_limits<Real>::infinity();
    Real scale = 1.0;
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        dt = std::min(dt, scale * castro::estimateDt(m_state[lev], geom(lev),
                                                     m_net, m_eos, m_opt.cfl));
        if (subcycle) scale *= refRatio();
    }
    return dt;
}

void Castro::level0Rhs(MultiFab& src, MultiFab& dudt,
                       std::array<MultiFab, 3>* fluxes, CostMonitor* cost) {
    const Geometry& g = geom(0);
    // Post the exchange, sweep each fab's interior (which never reads
    // ghost zones at this stencil width) while it is in flight, then
    // deliver the ghosts, apply physical BCs, and sweep the fab's shell
    // list in one call (one primitive pass per fab). Any disjoint cover of
    // the valid boxes yields the same result bit-for-bit, fluxes included:
    // each region writes its surrounding faces, and a face two regions
    // share gets the same value from both. The partition decides which
    // fabs overlap; a whole fab's shell is its valid box.
    const auto part = CopierCache::instance().interiorPartition(
        src.boxArray(), stencilWidth(m_opt.reconstruction));
    comm::HaloHandle halo = src.FillBoundary_nowait(*part, 0, src.nComp(), g.periodicity());
    auto rhs = [&](std::size_t f, std::span<const Box> regions) {
        const int fi = static_cast<int>(f);
        CostMonitor::ScopedFabTimer t(cost, 0, fi);
        molRhsRegions(src, dudt, fi, regions, g, m_net, m_eos, fluxes,
                      m_opt.reconstruction);
    };
    for (std::size_t f = 0; f < src.size(); ++f) {
        if (part->fabs[f].interior.ok()) rhs(f, {&part->fabs[f].interior, 1});
    }
    halo.finish();
    applyPhysBC(0, src);
    for (std::size_t f = 0; f < src.size(); ++f) rhs(f, part->fabs[f].shell);
}

void Castro::advanceLevel(int lev, Real time, Real dt, BurnGridStats& burn,
                          CostMonitor* cost) {
    const int nc = m_layout.ncomp();
    MultiFab& s = m_state[lev];

    // Rotate time levels: the pre-step state becomes the old time, so
    // finer levels can interpolate ghosts anywhere in [time, time + dt].
    if (m_state_old[lev].isDefined()) {
        MultiFab::Copy(m_state_old[lev], s, 0, 0, nc, 0);
    }
    m_t_old[lev] = time;
    m_t_new[lev] = time + dt;

    auto halfBurn = [&] {
        if (!m_opt.do_react) return;
        TimerRegion timer("castro::react");
        BurnGridStats b =
            reactState(s, m_net, m_eos, 0.5 * dt, m_opt.react, cost, lev);
        if (b.first_failure.valid) b.first_failure.level = lev;
        burn.merge(b);
    };

    // Strang half-burn (per level: each level splits around its own dt).
    halfBurn();

    {
        TimerRegion timer("castro::hydro");
        // Face fluxes are needed whenever a register borders this level:
        // above (we are the coarse side of lev+1's register) or below (we
        // are the fine side of our own).
        const bool crse_side = reflux && lev < finestLevel();
        const bool fine_side = reflux && lev > 0;
        std::array<MultiFab, 3> flux;
        std::array<MultiFab, 3>* fluxp = nullptr;
        if (crse_side || fine_side) {
            flux = makeFluxFabs(s.boxArray(), s.distributionMap(), nc);
            fluxp = &flux;
        }

        MultiFab dudt(s.boxArray(), s.distributionMap(), nc, 0);
        // Level 0 fills the ghosts of its stage states in place, so u1
        // carries them there. Finer levels sweep a ghost-bearing working
        // copy (AMReX's "Sborder" pattern): the state itself never
        // receives interpolated data over its valid zones.
        MultiFab u1(s.boxArray(), s.distributionMap(), nc, lev == 0 ? s.nGrow() : 0);
        MultiFab sborder;
        if (lev > 0) sborder.define(s.boxArray(), s.distributionMap(), nc, s.nGrow());

        // One RHS sweep of `src` with ghosts at `at` (the per-fab compute
        // is timed for the cost monitor; the fill's halo waits are comm,
        // not hydro cost), then bank this stage's fluxes in the
        // registers. Both SSP-RK2 stages enter the update with weight 1/2,
        // so each stage's flux carries w = 0.5 of its level's dt: negative
        // on the coarse side, positive (area-averaged) on the fine side.
        auto sweep = [&](MultiFab& src, Real at, Real w) {
            if (lev == 0) {
                level0Rhs(src, dudt, fluxp, cost);
            } else {
                fillPatchAtTime(lev, at, src, sborder);
                for (std::size_t f = 0; f < s.size(); ++f) {
                    const int fi = static_cast<int>(f);
                    CostMonitor::ScopedFabTimer t(cost, lev, fi);
                    molRhsRegions(sborder, dudt, fi, {&s.box(fi), 1}, geom(lev),
                                  m_net, m_eos, fluxp, m_opt.reconstruction);
                }
            }
            if (crse_side && m_flux_reg[lev + 1].isDefined()) {
                m_flux_reg[lev + 1].CrseAdd(flux, -w * dt);
            }
            if (fine_side && m_flux_reg[lev].isDefined()) {
                m_flux_reg[lev].FineAdd(flux, w * dt);
            }
        };

        // Stage 1: U1 = U^n + dt L(U^n).
        sweep(s, time, 0.5);
        MultiFab::Copy(u1, s, 0, 0, nc, 0);
        u1.saxpy(dt, dudt, 0, 0, nc);
        enforceConsistency(u1, m_net, m_eos, m_opt.small_dens);

        // Stage 2: U^{n+1} = 1/2 U^n + 1/2 (U1 + dt L(U1)), with the ghosts
        // of u1 at the end-of-step time (coarse data time-interpolated
        // across the coarse bracket under subcycling).
        sweep(u1, time + dt, 0.5);
        u1.saxpy(dt, dudt, 0, 0, nc);
        MultiFab::LinComb(s, 0.5, s, 0.5, u1, 0, nc);
        enforceConsistency(s, m_net, m_eos, m_opt.small_dens);
    }

    if (m_opt.gravity != GravityType::None) {
        // Operator-split source with the field solved at the start of the
        // coarse step (every substep of this level reuses it).
        TimerRegion timer("castro::gravity");
        m_gravity.addSource(lev, s, dt);
        enforceConsistency(s, m_net, m_eos, m_opt.small_dens);
    }

    halfBurn();

    ++m_advances[lev];
}

void Castro::timeStep(int lev, Real time, Real dt, BurnGridStats& burn,
                      CostMonitor* cost) {
    // The register below lev+1 collects this coarse step's mismatch from
    // scratch (self-cleaning also makes StepGuard rollback trivial: a
    // re-advance re-zeroes before re-accumulating).
    if (reflux && lev < finestLevel() && m_flux_reg[lev + 1].isDefined()) {
        m_flux_reg[lev + 1].setVal(0.0);
    }

    advanceLevel(lev, time, dt, burn, cost);

    if (lev < finestLevel()) {
        const int nsub = subcycle ? refRatio() : 1;
        const Real sub_dt = dt / nsub;
        for (int i = 0; i < nsub; ++i) {
            timeStep(lev + 1, time + i * sub_dt, sub_dt, burn, cost);
        }
        // Sync point: repay the coarse zones that advanced with the
        // uncorrected coarse flux, overwrite covered zones with the fine
        // average, and restore EOS consistency on the merged state.
        if (reflux && m_flux_reg[lev + 1].isDefined()) {
            m_flux_reg[lev + 1].Reflux(m_state[lev], geom(lev));
        }
        averageDown(m_state[lev], m_state[lev + 1], refRatio(), 0, 0,
                    m_layout.ncomp());
        enforceConsistency(m_state[lev], m_net, m_eos, m_opt.small_dens);
    }
}

void Castro::solveGravity() {
    if (m_opt.gravity == GravityType::None) return;
    TimerRegion timer("castro::gravity");
    std::vector<Geometry> geoms;
    std::vector<const MultiFab*> states;
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        geoms.push_back(geom(lev));
        states.push_back(&m_state[lev]);
    }
    m_gravity.solve(geoms, states, refRatio());
}

BurnGridStats Castro::advanceOnce(Real t0, Real dt) {
    BurnGridStats burn;
    CostMonitor* cost =
        m_opt.rebalance.enabled ? &m_rebalancer.monitor() : nullptr;
    // One solve per coarse step couples every level; the field is reused
    // by each level advance within the step. It reads only the density,
    // which the first half-burn leaves alone, so solving before the burn
    // gives the same field. Re-runs under a StepGuard retry recompute it
    // from the rolled-back state, so the retry replays bit-identically.
    solveGravity();
    timeStep(0, t0, dt, burn, cost);
    return burn;
}

BurnGridStats Castro::step(Real dt) {
    BurnGridStats burn;
    bool degraded = false;
    if (!m_guard.options().enabled) {
        burn = advanceOnce(m_time, dt);
    } else {
        // Snapshot every level's state and time bracket (and the register
        // payloads, after all the states so degrade's snap.mf(lev)
        // indexing is undisturbed); restore requires the BoxArrays to be
        // unchanged, which holds because regridding happens only below,
        // after the guarded step is accepted.
        m_guard.advance(
            dt,
            [&](StateSnapshot& snap) {
                for (int lev = 0; lev <= finestLevel(); ++lev) {
                    snap.capture(m_state[lev]);
                    snap.captureScalar(m_t_old[lev]);
                    snap.captureScalar(m_t_new[lev]);
                }
                for (int lev = 1; lev <= finestLevel(); ++lev) {
                    if (!m_flux_reg[lev].isDefined()) continue;
                    for (int d = 0; d < 3; ++d) {
                        snap.capture(m_flux_reg[lev].mf(d));
                    }
                }
            },
            [&](const StateSnapshot& snap) {
                for (int lev = 0; lev <= finestLevel(); ++lev) {
                    const auto l = static_cast<std::size_t>(lev);
                    snap.restoreTo(l, m_state[lev]);
                    m_t_old[lev] = snap.scalar(2 * l);
                    m_t_new[lev] = snap.scalar(2 * l + 1);
                }
                std::size_t mf_idx = static_cast<std::size_t>(finestLevel()) + 1;
                for (int lev = 1; lev <= finestLevel(); ++lev) {
                    if (!m_flux_reg[lev].isDefined()) continue;
                    for (int d = 0; d < 3; ++d) {
                        snap.restoreTo(mf_idx++, m_flux_reg[lev].mf(d));
                    }
                }
            },
            [&](Real sub_dt, int nsub) {
                burn = BurnGridStats{};
                Real t = m_time;
                for (int s = 0; s < nsub; ++s) {
                    burn.merge(advanceOnce(t, sub_dt));
                    t += sub_dt;
                }
            },
            [&] {
                ValidationReport rep;
                for (int lev = 0; lev <= finestLevel(); ++lev) {
                    // Burn stats are hierarchy-wide; attach them to the
                    // level-0 report so they are flagged exactly once.
                    ValidationReport r = validateState(
                        m_state[lev], m_net.nspec(), m_opt.guard,
                        lev == 0 ? &burn : nullptr,
                        "level " + std::to_string(lev));
                    for (auto& issue : r.issues) {
                        rep.issues.push_back(std::move(issue));
                    }
                }
                return rep;
            },
            [&](const StateSnapshot& snap, bool advance_threw) {
                // Clamp-and-warn: replace the zones that went bad with
                // their pre-step values and recompute T. When the advance
                // itself threw, the engine already restored the snapshot
                // wholesale.
                degraded = true;
                if (!advance_threw) {
                    for (int lev = 0; lev <= finestLevel(); ++lev) {
                        repairInvalidZones(m_state[lev],
                                           snap.mf(static_cast<std::size_t>(lev)),
                                           m_opt.guard);
                        enforceConsistency(m_state[lev], m_net, m_eos,
                                           m_opt.small_dens);
                    }
                    // Zone repairs act level-locally; re-average so coarse
                    // data under fine grids reflects the repaired fine
                    // state before the run continues.
                    for (int lev = finestLevel(); lev > 0; --lev) {
                        averageDown(m_state[lev - 1], m_state[lev], refRatio(),
                                    0, 0, m_layout.ncomp());
                        enforceConsistency(m_state[lev - 1], m_net, m_eos,
                                           m_opt.small_dens);
                    }
                }
            });
    }

    // One step, however many substeps it took.
    m_time += dt;
    ++m_nstep;
    // Every accepted step ends at a sync point: the mask-aware hierarchy
    // sums and the level-0 shortcut must agree to round-off. (A degraded
    // step re-averaged after repair, so it qualifies too; the check is
    // debug-build only.)
    assert(degraded || finestLevel() == 0 || syncPointSumsAgree());
    (void)degraded;
    if (regrid_interval > 0 && m_nstep % regrid_interval == 0 && maxLevel() > 0) {
        regrid(0);
    }
    // Re-evaluated after the regrid: rebuilt levels had their cost
    // history reset (the regrid's zone-count mapping is their cold
    // start), while stable levels can act on this step's measurements.
    maybeRebalance();
    return burn;
}

void Castro::maybeRebalance() {
    if (!m_opt.rebalance.enabled) return;
    auto& mon = m_rebalancer.monitor();
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        // Hydro work channel: every zone costs ~hydro_zone_work units per
        // step regardless of burning, so burn-free boxes keep a realistic
        // floor under the Work metric.
        const BoxArray& ba = boxArray(lev);
        for (std::size_t f = 0; f < ba.size(); ++f) {
            mon.addWork(lev, static_cast<int>(f),
                        m_opt.rebalance.hydro_zone_work *
                            static_cast<double>(ba[f].numPts()));
        }
        // The old-time state migrates with the state (same layout); the
        // flux register is redefined on the new mapping afterwards — its
        // contents are dead between sync points — and gravity rebuilds on
        // the new layout at its next solve.
        std::vector<MultiFab*> fabs{&m_state[lev]};
        if (m_state_old[lev].isDefined()) fabs.push_back(&m_state_old[lev]);
        const auto d = m_rebalancer.step(lev, m_nstep, fabs);
        if (d.performed) {
            // Keep AmrCore's per-level mapping (used by the next regrid
            // and by fillPatch temporaries) in sync with the migration.
            m_dm[lev] = m_state[lev].distributionMap();
            if (lev > 0) {
                m_flux_reg[lev].define(m_state[lev].boxArray(),
                                       m_state[lev].distributionMap(),
                                       refRatio(), m_layout.ncomp());
            }
            m_gravity.noteRegrid();
        }
    }
}

Real Castro::maskedSum(int comp) const {
    Real total = 0.0;
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        const Real vol = geom(lev).cellVolume();
        BoxArray covered; // next-finer boxes in this level's index space
        if (lev < finestLevel()) {
            covered = boxArray(lev + 1);
            covered.coarsen(refRatio());
        }
        const MultiFab& s = m_state[lev];
        for (std::size_t f = 0; f < s.size(); ++f) {
            const int fi = static_cast<int>(f);
            std::vector<Box> pieces{s.box(fi)};
            for (const auto& [j, isect] : covered.intersections(s.box(fi))) {
                (void)isect;
                std::vector<Box> next;
                for (const Box& p : pieces) {
                    for (const Box& q : boxDiff(p, covered[j])) next.push_back(q);
                }
                pieces = std::move(next);
                if (pieces.empty()) break;
            }
            for (const Box& p : pieces) {
                total += s.fab(fi).sum(p, comp) * vol;
            }
        }
    }
    return total;
}

bool Castro::syncPointSumsAgree(Real rtol) const {
    for (const int comp : {StateLayout::URHO, StateLayout::UEDEN}) {
        const Real hier = maskedSum(comp);
        const Real lev0 = m_state[0].sum(comp) * geom(0).cellVolume();
        const Real scale = std::max(std::abs(hier), std::abs(lev0));
        if (std::abs(hier - lev0) > rtol * std::max(scale, Real(1.0))) {
            return false;
        }
    }
    return true;
}

Real Castro::totalMass() const { return maskedSum(StateLayout::URHO); }

std::array<Real, 3> Castro::totalMomentum() const {
    return {maskedSum(StateLayout::UMX), maskedSum(StateLayout::UMY),
            maskedSum(StateLayout::UMZ)};
}

Real Castro::totalEnergy() const { return maskedSum(StateLayout::UEDEN); }

Real Castro::maxTemperature() const {
    Real t = -std::numeric_limits<Real>::infinity();
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        t = std::max(t, m_state[lev].max(StateLayout::UTEMP));
    }
    return t;
}

Real Castro::maxDensity() const {
    Real rho = -std::numeric_limits<Real>::infinity();
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        rho = std::max(rho, m_state[lev].max(StateLayout::URHO));
    }
    return rho;
}

std::array<Real, 3> Castro::hottestZone() const {
    Real best = -1.0;
    std::array<Real, 3> pos{0, 0, 0};
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        const MultiFab& s = m_state[lev];
        const Geometry& g = geom(lev);
        for (std::size_t b = 0; b < s.size(); ++b) {
            auto u = s.const_array(static_cast<int>(b));
            const Box& vb = s.box(static_cast<int>(b));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        if (u(i, j, k, StateLayout::UTEMP) > best) {
                            best = u(i, j, k, StateLayout::UTEMP);
                            pos = {g.cellCenter(0, i), g.cellCenter(1, j),
                                   g.cellCenter(2, k)};
                        }
                    }
        }
    }
    return pos;
}

Real Castro::minBurnTimescaleRatio(Real T_threshold) const {
    const int nspec = m_net.nspec();
    Real ratio = 1.0e99;
    // Serial diagnostic loop: size the scratch to the network.
    std::vector<Real> X(nspec);
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        const MultiFab& s = m_state[lev];
        const Real dx = geom(lev).cellSize(0);
        for (std::size_t b = 0; b < s.size(); ++b) {
            auto u = s.const_array(static_cast<int>(b));
            const Box& vb = s.box(static_cast<int>(b));
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                        const Real T = u(i, j, k, StateLayout::UTEMP);
                        if (T < T_threshold) continue;
                        const Real rho = u(i, j, k, StateLayout::URHO);
                        for (int n = 0; n < nspec; ++n) {
                            X[n] = std::clamp(u(i, j, k, StateLayout::UFS + n) / rho,
                                              Real(0), Real(1));
                        }
                        const Real t_burn =
                            burningTimescale(m_net, m_eos, rho, T, X.data());
                        EosState es;
                        es.rho = rho;
                        es.T = T;
                        es.abar = m_net.abar(X.data());
                        es.ye = m_net.ye(X.data());
                        m_eos.rhoT(es);
                        const Real t_cross = dx / std::max(es.cs, Real(1.0));
                        ratio = std::min(ratio, t_burn / t_cross);
                    }
        }
    }
    return ratio;
}

} // namespace exa::castro
