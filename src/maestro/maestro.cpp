#include "maestro/maestro.hpp"

#include "castro/face_kernel.hpp"
#include "core/executor.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace exa::maestro {

Maestro::Maestro(const Geometry& geom, const BoxArray& ba,
                 const DistributionMapping& dm, const ReactionNetwork& net,
                 const Eos& eos, const BaseState& base, const MaestroOptions& opt)
    : Driver(opt.guard),
      m_geom(geom),
      m_net(net),
      m_eos(eos),
      m_base(base),
      m_opt(opt),
      m_layout(net.nspec()),
      m_state(ba, dm, m_layout.ncomp(), kAdvectGhost),
      m_rebalancer(opt.rebalance) {
    m_state.setVal(0.0);
    // Warm start: each projection iterates from the previous step's phi,
    // so m_phi is part of the trajectory (checkpointed with the state).
    CompositeMgOptions mg_opt;
    mg_opt.warm_start = true;
    BoxArray mg_ba(geom.domain());
    mg_ba.maxSize(mg_opt.max_grid_size);
    const DistributionMapping mg_dm(mg_ba, mg_opt.nranks);
    m_mg = std::make_unique<CompositeMg>(std::vector<Geometry>{geom},
                                         std::vector<BoxArray>{mg_ba},
                                         std::vector<DistributionMapping>{mg_dm},
                                         2, MgBC::Neumann, mg_opt);
    m_mg_phi.define(mg_ba, mg_dm, 1, 1);
    m_mg_rhs.define(mg_ba, mg_dm, 1, 0);
    m_phi.define(ba, dm, 1, 1);
    m_phi.setVal(0.0);
    m_divu.define(ba, dm, 1, 0);
    m_rebalancer.noteRegrid(0, ba.size());
}

void Maestro::initialize(const InitFn& f) {
    const int nspec = m_net.nspec();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real T = m_base.T0(k);
                    X.assign(m_base.X().begin(), m_base.X().end());
                    f(m_geom.cellCenter(0, i), m_geom.cellCenter(1, j),
                      m_geom.cellCenter(2, k), T, X);
                    q(i, j, k, MaestroLayout::QT) = T;
                    for (int n = 0; n < nspec; ++n) {
                        q(i, j, k, MaestroLayout::QFS + n) = X[n];
                    }
                }
    }
}

Real Maestro::rhoOf(int kzone, Real T, const Real* X) const {
    const Real abar = m_net.abar(X);
    const Real ye = m_net.ye(X);
    return rhoFromPT(m_eos, m_base.p0(kzone), T, abar, ye, m_base.rho0(kzone));
}

void Maestro::applyPhysBC(MultiFab& s) {
    DomainBC bc;
    bc.set(0, 0, m_geom.isPeriodic(0) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(0, 1, m_geom.isPeriodic(0) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(1, 0, m_geom.isPeriodic(1) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(1, 1, m_geom.isPeriodic(1) ? PhysBC::Periodic : PhysBC::Outflow);
    bc.set(2, 0, PhysBC::Reflect); // slip walls top and bottom
    bc.set(2, 1, PhysBC::Reflect);
    std::array<std::vector<int>, 3> odd;
    odd[2] = {MaestroLayout::QW};
    fillPhysicalBoundary(s, m_geom, bc, odd);
}

void Maestro::fillGhosts(MultiFab& s) {
    s.FillBoundary(0, s.nComp(), m_geom.periodicity());
    applyPhysBC(s);
}

Real Maestro::estimateDt() const {
    // Advective CFL (no sound speed — the low Mach advantage) plus a
    // buoyancy limit so the first steps (U = 0) are finite.
    Real umax = 0.0;
    Real amax = 1.0e-30;
    const int nspec = m_net.nspec();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    for (int d = 0; d < 3; ++d) {
                        umax = std::max(umax, std::abs(q(i, j, k, d)));
                    }
                    for (int n = 0; n < nspec; ++n) {
                        X[n] = q(i, j, k, MaestroLayout::QFS + n);
                    }
                    const Real rho =
                        rhoOf(k, q(i, j, k, MaestroLayout::QT), X.data());
                    const Real buoy = std::abs(m_base.gravity()) *
                                      std::abs(rho - m_base.rho0(k)) /
                                      m_base.rho0(k);
                    amax = std::max(amax, buoy);
                }
    }
    const Real dx = m_geom.cellSize(0);
    Real dt = 1.0e30;
    if (umax > 0.0) dt = std::min(dt, m_opt.cfl * dx / umax);
    dt = std::min(dt, std::sqrt(2.0 * m_opt.cfl * dx / amax));
    return dt;
}

void Maestro::advect(Real dt) {
    TimerRegion timer("maestro::advect");
    const int nc = m_layout.ncomp();
    MultiFab snew(m_state.boxArray(), m_state.distributionMap(), nc, m_state.nGrow());

    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    // One upwind sweep over `region` of fab b (a pure function of m_state,
    // so any disjoint region cover of the valid box matches the fused
    // sweep bit-for-bit). Reads q at +-kAdvectGhost zones.
    auto sweep = [&](std::size_t b, const Box& region) {
        auto q = m_state.const_array(static_cast<int>(b));
        auto qn = snew.array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_advect", 300.0, 200.0, 96, 1.0}, region, nc,
                    [=](int i, int j, int k, int n) {
                        Real dq = 0.0;
                        for (int d = 0; d < 3; ++d) {
                            const std::int64_t s = castro::faceStride(q, d);
                            const Real* pu = &q(i, j, k, d);
                            const Real* pq = &q(i, j, k, n);
                            // Face velocities (average of adjacent zones).
                            const Real ulo = 0.5 * (pu[-s] + pu[0]);
                            const Real uhi = 0.5 * (pu[0] + pu[s]);
                            // Upwind MC-reconstructed state on the face
                            // between zone pz - s and zone pz.
                            auto face = [&](const Real* pz, Real uf) {
                                if (uf >= 0.0) {
                                    return pz[-s] +
                                           0.5 * castro::mcSlopeAt(pz - s, s);
                                }
                                return pz[0] - 0.5 * castro::mcSlopeAt(pz, s);
                            };
                            const Real qlo = face(pq, ulo);
                            const Real qhi = face(pq + s, uhi);
                            // Advective (convective) form: U . grad q,
                            // using flux difference minus q div(U) so a
                            // constant field is exactly preserved.
                            dq += (uhi * qhi - ulo * qlo - pq[0] * (uhi - ulo)) *
                                  dxi[d];
                        }
                        qn(i, j, k, n) = q(i, j, k, n) - dt * dq;
                    });
    };

    // Pack the exchange, copy valid zones and sweep every interior while
    // it is in flight, then deliver ghosts + physical BCs and sweep the
    // boundary shells.
    const auto part =
        CopierCache::instance().interiorPartition(m_state.boxArray(), kAdvectGhost);
    comm::HaloHandle halo =
        m_state.FillBoundary_nowait(*part, 0, nc, m_geom.periodicity());
    MultiFab::Copy(snew, m_state, 0, 0, nc, 0);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        if (part->fabs[b].interior.ok()) sweep(b, part->fabs[b].interior);
    }
    halo.finish();
    applyPhysBC(m_state);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        for (const Box& sb : part->fabs[b].shell) sweep(b, sb);
    }
    m_state = std::move(snew);
}

void Maestro::buoyancy(Real dt) {
    TimerRegion timer("maestro::buoyancy");
    const int nspec = m_net.nspec();
    const Real g = m_base.gravity();
    std::vector<Real> X(nspec);
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    for (int n = 0; n < nspec; ++n) {
                        X[n] = q(i, j, k, MaestroLayout::QFS + n);
                    }
                    const Real rho =
                        rhoOf(k, q(i, j, k, MaestroLayout::QT), X.data());
                    q(i, j, k, MaestroLayout::QW) +=
                        dt * g * (rho - m_base.rho0(k)) / m_base.rho0(k);
                }
    }
}

BurnGridStats Maestro::react(Real dt) {
    TimerRegion timer("maestro::react");
    // The MAESTRO layout: mass fractions in QFS.., density from the EOS at
    // the base-state pressure, and no energy equation (T carries the heat).
    const int nspec = m_net.nspec();
    castro::BurnZoneIO io;
    io.load = [this, nspec](const Array4<const Real>& q, int i, int j, int k, Real& T,
                            Real* X) {
        T = q(i, j, k, MaestroLayout::QT);
        for (int n = 0; n < nspec; ++n) {
            X[n] = std::clamp(q(i, j, k, MaestroLayout::QFS + n), Real(0), Real(1));
        }
        return rhoOf(k, T, X);
    };
    io.store = [nspec](const Array4<Real>& q, int i, int j, int k, Real /*rho*/,
                       Real T, const Real* X, Real /*e_nuc*/) {
        q(i, j, k, MaestroLayout::QT) = T;
        for (int n = 0; n < nspec; ++n) q(i, j, k, MaestroLayout::QFS + n) = X[n];
    };
    CostMonitor* cost =
        m_opt.rebalance.enabled ? &m_rebalancer.monitor() : nullptr;
    return castro::burnGrid(m_state, io, m_net, m_eos, dt, m_opt.react, cost, 0);
}

void Maestro::project() {
    TimerRegion timer("maestro::projection");
    fillGhosts(m_state);
    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    // divu = div U (central differences).
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        auto d = m_divu.array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_divu", 20.0, 80.0, 40, 1.0},
                    m_divu.box(static_cast<int>(b)), [=](int i, int j, int k) {
                        d(i, j, k) =
                            0.5 * (q(i + 1, j, k, 0) - q(i - 1, j, k, 0)) * dxi[0] +
                            0.5 * (q(i, j + 1, k, 1) - q(i, j - 1, k, 1)) * dxi[1] +
                            0.5 * (q(i, j, k + 1, 2) - q(i, j, k - 1, 2)) * dxi[2];
                    });
    }
    const Periodicity period = m_geom.periodicity();
    m_mg_phi.ParallelCopy(m_phi, 0, 0, 1, 0, period);
    m_mg_rhs.ParallelCopy(m_divu, 0, 0, 1, 0, period);
    const CompositeMgResult res = m_mg->solve({&m_mg_phi}, {&m_mg_rhs});
    m_phi.ParallelCopy(m_mg_phi, 0, 0, 1, 0, period);
    m_last_vcycles = res.vcycles;

    // U -= grad phi (same central stencil: an approximate projection).
    m_phi.FillBoundary(0, m_phi.nComp(), m_geom.periodicity());
    // Neumann ghosts at the z walls.
    for (std::size_t b = 0; b < m_phi.size(); ++b) {
        auto p = m_phi.array(static_cast<int>(b));
        const Box& vb = m_phi.box(static_cast<int>(b));
        const Box& dom = m_geom.domain();
        if (vb.smallEnd(2) == dom.smallEnd(2)) {
            const int k0 = dom.smallEnd(2);
            ParallelFor(Box({vb.smallEnd(0) - 1, vb.smallEnd(1) - 1, k0 - 1},
                            {vb.bigEnd(0) + 1, vb.bigEnd(1) + 1, k0 - 1}),
                        [=](int i, int j, int k) {
                            if (p.contains(i, j, k)) p(i, j, k) = p(i, j, k0);
                        });
        }
        if (vb.bigEnd(2) == dom.bigEnd(2)) {
            const int k1 = dom.bigEnd(2);
            ParallelFor(Box({vb.smallEnd(0) - 1, vb.smallEnd(1) - 1, k1 + 1},
                            {vb.bigEnd(0) + 1, vb.bigEnd(1) + 1, k1 + 1}),
                        [=](int i, int j, int k) {
                            if (p.contains(i, j, k)) p(i, j, k) = p(i, j, k1);
                        });
        }
    }
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.array(static_cast<int>(b));
        auto p = m_phi.const_array(static_cast<int>(b));
        ParallelFor(KernelInfo{"maestro_proj_correct", 30.0, 100.0, 48, 1.0},
                    m_state.box(static_cast<int>(b)), [=](int i, int j, int k) {
                        q(i, j, k, 0) -=
                            0.5 * (p(i + 1, j, k) - p(i - 1, j, k)) * dxi[0];
                        q(i, j, k, 1) -=
                            0.5 * (p(i, j + 1, k) - p(i, j - 1, k)) * dxi[1];
                        q(i, j, k, 2) -=
                            0.5 * (p(i, j, k + 1) - p(i, j, k - 1)) * dxi[2];
                    });
    }
}

Real Maestro::maxAbsDivergence() {
    fillGhosts(m_state);
    const Real dxi[3] = {1.0 / m_geom.cellSize(0), 1.0 / m_geom.cellSize(1),
                         1.0 / m_geom.cellSize(2)};
    Real mx = 0.0;
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        mx = std::max(
            mx, ParallelReduceMax(m_state.box(static_cast<int>(b)),
                                  [=](int i, int j, int k) {
                                      return std::abs(
                                          0.5 * (q(i + 1, j, k, 0) - q(i - 1, j, k, 0)) *
                                              dxi[0] +
                                          0.5 * (q(i, j + 1, k, 1) - q(i, j - 1, k, 1)) *
                                              dxi[1] +
                                          0.5 * (q(i, j, k + 1, 2) - q(i, j, k - 1, 2)) *
                                              dxi[2]);
                                  }));
    }
    return mx;
}

BurnGridStats Maestro::advance(Real dt, int nsub) {
    BurnGridStats burn;
    for (int s = 0; s < nsub; ++s) {
        advect(dt);
        buoyancy(dt);
        if (m_opt.do_react) burn.merge(react(dt));
        project();
    }
    return burn;
}

void Maestro::postStep() {
    if (!m_opt.rebalance.enabled) return;
    std::vector<MultiFab*> fabs;
    for (const CheckpointField& f : checkpointFields()) fabs.push_back(f.mf);
    m_rebalancer.step(0, m_nstep, fabs);
}

ValidationReport Maestro::validate(const BurnGridStats& burn) const {
    // Tolerance on |sum X - 1| per zone.
    constexpr Real kSpeciesSumRtol = 1.0e-6;
    ValidationReport rep;
    checkFinite(m_state, rep, "");
    // Low Mach state: density is derived, so positivity means T > 0.
    checkAbove(m_state, MaestroLayout::QT, 0.0, "negative-temperature", rep, "");
    // Species fractions are stored directly (not rho-weighted).
    const int nspec = m_net.nspec();
    for (std::size_t f = 0; f < m_state.size(); ++f) {
        auto q = m_state.const_array(static_cast<int>(f));
        const Box& vb = m_state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k) {
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j) {
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    Real xsum = 0.0;
                    for (int n = 0; n < nspec; ++n) {
                        xsum += q(i, j, k, MaestroLayout::QFS + n);
                    }
                    if (!(std::abs(xsum - 1.0) <= kSpeciesSumRtol)) {
                        std::ostringstream os;
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
    if (burn.failures > 0) {
        const double frac =
            burn.zones > 0 ? static_cast<double>(burn.failures) / burn.zones : 1.0;
        if (frac > m_opt.guard.burn_failure_tol) {
            std::ostringstream os;
            os << burn.failures << " of " << burn.zones << " zones failed to burn";
            const std::string where = burn.describeFailure();
            if (!where.empty()) os << "; first at " << where;
            rep.add("burn-failures", os.str());
        }
    }
    return rep;
}

void Maestro::repair(const StateSnapshot& snap) {
    // Rewind only the zones that went bad.
    auto bad = [&](Array4<const Real> q, int i, int j, int k) {
        for (int n = 0; n < m_layout.ncomp(); ++n) {
            if (!std::isfinite(q(i, j, k, n))) return true;
        }
        return !(q(i, j, k, MaestroLayout::QT) > 0.0);
    };
    const MultiFab& s0 = snap.mf(0); // checkpointFields()[0]: the state
    for (std::size_t f = 0; f < m_state.size(); ++f) {
        auto q = m_state.array(static_cast<int>(f));
        auto s = s0.const_array(static_cast<int>(f));
        const Box& vb = m_state.box(static_cast<int>(f));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    if (bad(q, i, j, k)) {
                        for (int n = 0; n < m_layout.ncomp(); ++n) {
                            q(i, j, k, n) = s(i, j, k, n);
                        }
                    }
                }
    }
}

Real Maestro::bubbleHeight() const {
    Real wsum = 0.0, zsum = 0.0;
    for (std::size_t b = 0; b < m_state.size(); ++b) {
        auto q = m_state.const_array(static_cast<int>(b));
        const Box& vb = m_state.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    const Real dT = q(i, j, k, MaestroLayout::QT) - m_base.T0(k);
                    if (dT > 0.0) {
                        wsum += dT;
                        zsum += dT * m_geom.cellCenter(2, k);
                    }
                }
    }
    return wsum > 0 ? zsum / wsum : 0.0;
}

std::unique_ptr<Maestro> BubbleParams::build(const ReactionNetwork& net) const {
    const BubbleParams& p = *this;
    Box dom({0, 0, 0}, {p.ncell - 1, p.ncell - 1, p.ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {p.domain_width, p.domain_width, p.domain_width},
                  IntVect{1, 1, 0});
    BoxArray ba(dom);
    ba.maxSize(p.max_grid_size);
    DistributionMapping dm(ba, p.nranks);

    Eos eos{HelmLiteEos{}};
    std::vector<Real> X(net.nspec(), 0.0);
    X[0] = 1.0; // pure fuel (c12 in ignition_simple)

    BaseState base(eos, net, p.rho_base, p.T_base, X, p.ncell, 0.0,
                   p.domain_width / p.ncell, p.gravity);

    MaestroOptions opt;
    opt.do_react = p.do_react;
    opt.react.T_min = 1.0e8;
    // Burn box by box, in traversal order: one unsorted batch per fab, the
    // launch shape the Fig. 3 anchors (EXPERIMENTS.md E2) were calibrated on.
    opt.react.batch.batch_size = p.max_grid_size * p.max_grid_size * p.max_grid_size;
    opt.react.batch.sort_by_stiffness = false;
    opt.guard = p.guard;
    opt.rebalance = p.rebalance;

    auto m = std::make_unique<Maestro>(geom, ba, dm, net, eos, base, opt);
    const Real r_bub = p.bubble_radius_frac * p.domain_width;
    const Real z_bub = p.bubble_height_frac * p.domain_width;
    const Real xc = 0.5 * p.domain_width;
    m->initialize([=](Real x, Real y, Real z, Real& T, std::vector<Real>& Xz) {
        const Real r = std::sqrt((x - xc) * (x - xc) + (y - xc) * (y - xc) +
                                 (z - z_bub) * (z - z_bub));
        if (r < 2.0 * r_bub) {
            T += (p.T_bubble - p.T_base) * std::exp(-(r * r) / (r_bub * r_bub));
        }
        (void)Xz;
    });
    return m;
}

} // namespace exa::maestro
