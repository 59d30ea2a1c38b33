#include "castro/castro.hpp"

#include "castro/validate.hpp"
#include "core/executor.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"

#include <cassert>
#include <cmath>

namespace exa::castro {

Castro::Castro(const Geometry& geom, const BoxArray& ba,
               const DistributionMapping& dm, const ReactionNetwork& net,
               const Eos& eos, const CastroOptions& opt)
    : m_geom(geom),
      m_net(net),
      m_eos(eos),
      m_opt(opt),
      m_layout(net.nspec()),
      m_state(ba, dm, m_layout.ncomp(), stencilWidth(opt.reconstruction)),
      m_gravity(opt.gravity, geom, net.nspec()),
      m_guard(opt.guard),
      m_rebalancer(opt.rebalance) {
    m_state.setVal(0.0);
    m_rebalancer.noteRegrid(0, ba.size());
}

void Castro::initialize(const InitFn& f) {
    const int nspec = m_net.nspec();
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto u = m_state.array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    InitialZone z = f(m_geom.cellCenter(0, i), m_geom.cellCenter(1, j),
                                      m_geom.cellCenter(2, k));
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
                    u(i, j, k, StateLayout::UMX + 1) = z.rho * z.vel[1];
                    u(i, j, k, StateLayout::UMX + 2) = z.rho * z.vel[2];
                    u(i, j, k, StateLayout::UEDEN) = z.rho * (s.e + ke);
                    u(i, j, k, StateLayout::UTEMP) = s.T;
                    for (int n = 0; n < nspec; ++n) {
                        u(i, j, k, StateLayout::UFS + n) = z.rho * z.X[n];
                    }
                }
            }
        }
    }
}

void Castro::applyPhysBC(MultiFab& s) {
    // Momentum components reflect oddly in their own direction.
    std::array<std::vector<int>, 3> odd;
    odd[0] = {StateLayout::UMX};
    odd[1] = {StateLayout::UMY};
    odd[2] = {StateLayout::UMZ};
    fillPhysicalBoundary(s, m_geom, m_opt.bc, odd);
}

void Castro::fillGhosts(MultiFab& s) {
    s.FillBoundary(0, s.nComp(), m_geom.periodicity());
    applyPhysBC(s);
}

double Castro::stageRhs(MultiFab& s, MultiFab& dudt) {
    if (!comm::asyncHalo()) {
        fillGhosts(s);
        WallTimer compute;
        molRhs(s, dudt, m_geom, m_net, m_eos, nullptr, m_opt.reconstruction);
        return compute.seconds();
    }
    // Split phase: post the exchange, sweep every fab's interior (which
    // never reads ghost zones at this stencil width) while it is in
    // flight, then deliver the ghosts, apply physical BCs, and sweep each
    // fab's boundary shell list in one call (one primitive pass per fab).
    // Any disjoint cover of the valid boxes yields the fused result
    // bit-for-bit.
    comm::HaloHandle halo = s.FillBoundary_nowait(0, s.nComp(), m_geom.periodicity());
    const auto part = CopierCache::instance().interiorPartition(
        s.boxArray(), stencilWidth(m_opt.reconstruction));
    double compute_s = 0.0;
    {
        WallTimer compute;
        StreamScope streams;
        for (std::size_t f = 0; f < s.size(); ++f) {
            const FabRegions& fr = part->fabs[f];
            if (!fr.interior.ok()) continue;
            streams.useFab(f);
            molRhsRegions(s, dudt, static_cast<int>(f), {&fr.interior, 1}, m_geom,
                          m_net, m_eos, nullptr, m_opt.reconstruction);
        }
        compute_s += compute.seconds();
    }
    halo.finish();
    applyPhysBC(s);
    {
        WallTimer compute;
        StreamScope streams;
        for (std::size_t f = 0; f < s.size(); ++f) {
            streams.useFab(f);
            molRhsRegions(s, dudt, static_cast<int>(f), part->fabs[f].shell, m_geom,
                          m_net, m_eos, nullptr, m_opt.reconstruction);
        }
        compute_s += compute.seconds();
    }
    return compute_s;
}

Real Castro::estimateDt() const {
    return castro::estimateDt(m_state, m_geom, m_net, m_eos, m_opt.cfl);
}

double Castro::hydroAdvance(Real dt) {
    TimerRegion timer("castro::hydro");
    const int nc = m_layout.ncomp();
    MultiFab dudt(m_state.boxArray(), m_state.distributionMap(), nc, 0);
    MultiFab u1(m_state.boxArray(), m_state.distributionMap(), nc, m_state.nGrow());

    // Stage 1: U1 = U^n + dt L(U^n).
    double compute_s = stageRhs(m_state, dudt);
    MultiFab::Copy(u1, m_state, 0, 0, nc, 0);
    u1.saxpy(dt, dudt, 0, 0, nc);
    enforceConsistency(u1, m_net, m_eos, m_opt.small_dens);

    // Stage 2: U^{n+1} = 1/2 U^n + 1/2 (U1 + dt L(U1)).
    compute_s += stageRhs(u1, dudt);
    u1.saxpy(dt, dudt, 0, 0, nc);
    MultiFab::LinComb(m_state, 0.5, m_state, 0.5, u1, 0, nc);
    enforceConsistency(m_state, m_net, m_eos, m_opt.small_dens);
    return compute_s;
}

BurnGridStats Castro::advanceOnce(Real dt) {
    BurnGridStats burn;
    CostMonitor* cost =
        m_opt.rebalance.enabled ? &m_rebalancer.monitor() : nullptr;

    if (m_opt.do_react) {
        TimerRegion timer("castro::react");
        burn = reactState(m_state, m_net, m_eos, 0.5 * dt, m_opt.react, cost);
    }

    if (m_opt.gravity != GravityType::None) {
        TimerRegion timer("castro::gravity");
        m_gravity.solve(m_state);
    }
    {
        // Credit the compute-sweep seconds hydroAdvance measured, not the
        // whole wall time: the ghost fills inside it are comm waits, and
        // booking them as per-box hydro cost would skew the Time metric.
        const double hydro_compute_s = hydroAdvance(dt);
        if (cost != nullptr) creditHydroTime(hydro_compute_s);
    }
    if (m_opt.gravity != GravityType::None) {
        TimerRegion timer("castro::gravity");
        // Operator-split source with the field from the start of the step.
        m_gravity.addSource(m_state, dt);
        enforceConsistency(m_state, m_net, m_eos, m_opt.small_dens);
    }

    if (m_opt.do_react) {
        TimerRegion timer("castro::react");
        burn.merge(
            reactState(m_state, m_net, m_eos, 0.5 * dt, m_opt.react, cost));
    }

    return burn;
}

void Castro::creditHydroTime(double seconds) {
    const BoxArray& ba = m_state.boxArray();
    const double total = static_cast<double>(ba.numPts());
    if (total <= 0) return;
    auto& mon = m_rebalancer.monitor();
    for (std::size_t f = 0; f < ba.size(); ++f) {
        mon.addTime(0, static_cast<int>(f),
                    seconds * static_cast<double>(ba[f].numPts()) / total);
    }
}

void Castro::maybeRebalance() {
    if (!m_opt.rebalance.enabled) return;
    // Hydro work channel: every zone costs ~hydro_zone_work units per
    // step regardless of burning, so burn-free boxes keep a realistic
    // floor under the Work metric.
    auto& mon = m_rebalancer.monitor();
    const BoxArray& ba = m_state.boxArray();
    for (std::size_t f = 0; f < ba.size(); ++f) {
        mon.addWork(0, static_cast<int>(f),
                    m_opt.rebalance.hydro_zone_work *
                        static_cast<double>(ba[f].numPts()));
    }
    std::vector<MultiFab*> fabs{&m_state};
    for (MultiFab* g : m_gravity.rebalanceFabs()) fabs.push_back(g);
    m_rebalancer.step(0, m_nstep, fabs);
}

BurnGridStats Castro::step(Real dt) {
    if (!m_opt.guard.enabled) {
        BurnGridStats burn = advanceOnce(dt);
        m_time += dt;
        ++m_nstep;
        maybeRebalance();
        return burn;
    }

    // Guarded step: snapshot, advance (possibly as substeps), validate;
    // on failure roll back and re-advance with geometric dt backoff.
    BurnGridStats burn;
    m_guard.advance(
        dt,
        [&](StateSnapshot& snap) { snap.capture(m_state); },
        [&](const StateSnapshot& snap) { snap.restoreTo(0, m_state); },
        [&](Real sub_dt, int nsub) {
            burn = BurnGridStats{};
            for (int s = 0; s < nsub; ++s) burn.merge(advanceOnce(sub_dt));
        },
        [&] {
            return validateState(m_state, m_net.nspec(), m_opt.guard, &burn);
        },
        [&](const StateSnapshot& snap, bool advance_threw) {
            // Clamp-and-warn: replace the zones that went bad with their
            // pre-step values and recompute T. When the advance itself
            // threw, the engine already restored the snapshot wholesale.
            if (!advance_threw) {
                repairInvalidZones(m_state, snap.mf(0), m_opt.guard);
                enforceConsistency(m_state, m_net, m_eos, m_opt.small_dens);
            }
        });

    // One guarded step is one step, however many substeps it took.
    m_time += dt;
    ++m_nstep;
    // Rebalance only after the step is accepted: the guard's snapshot and
    // the state must share a layout for the whole retry scope.
    maybeRebalance();
    return burn;
}

Real Castro::totalMass() const {
    return m_state.sum(StateLayout::URHO) * m_geom.cellVolume();
}

std::array<Real, 3> Castro::totalMomentum() const {
    return {m_state.sum(StateLayout::UMX) * m_geom.cellVolume(),
            m_state.sum(StateLayout::UMY) * m_geom.cellVolume(),
            m_state.sum(StateLayout::UMZ) * m_geom.cellVolume()};
}

Real Castro::totalEnergy() const {
    return m_state.sum(StateLayout::UEDEN) * m_geom.cellVolume();
}

Real Castro::maxTemperature() const { return m_state.max(StateLayout::UTEMP); }

Real Castro::maxDensity() const { return m_state.max(StateLayout::URHO); }

std::array<Real, 3> Castro::hottestZone() const {
    Real best = -1.0;
    std::array<Real, 3> pos{0, 0, 0};
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto u = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    if (u(i, j, k, StateLayout::UTEMP) > best) {
                        best = u(i, j, k, StateLayout::UTEMP);
                        pos = {m_geom.cellCenter(0, i), m_geom.cellCenter(1, j),
                               m_geom.cellCenter(2, k)};
                    }
                }
    }
    return pos;
}

Real Castro::minBurnTimescaleRatio(Real T_threshold) const {
    const int nspec = m_net.nspec();
    Real ratio = 1.0e99;
    const Real dx = m_geom.cellSize(0);
    // Serial diagnostic loop: size the scratch to the network.
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto u = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
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
                    EosState s;
                    s.rho = rho;
                    s.T = T;
                    s.abar = m_net.abar(X.data());
                    s.ye = m_net.ye(X.data());
                    m_eos.rhoT(s);
                    const Real t_cross = dx / std::max(s.cs, Real(1.0));
                    ratio = std::min(ratio, t_burn / t_cross);
                }
    }
    return ratio;
}

} // namespace exa::castro
