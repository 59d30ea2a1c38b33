#include "castro/wd_collision.hpp"

#include <algorithm>
#include <cmath>

namespace exa::castro {

namespace {

// Invert P(rho) at fixed T and composition by Newton iteration.
Real rhoOfP(const Eos& eos, Real p_target, Real T, Real abar, Real ye, Real rho_guess) {
    Real rho = rho_guess;
    for (int it = 0; it < 80; ++it) {
        EosState s;
        s.rho = rho;
        s.T = T;
        s.abar = abar;
        s.ye = ye;
        eos.rhoT(s);
        const Real drho = (p_target - s.p) / std::max(s.dpdr, Real(1.0e-30));
        rho += std::clamp(drho, -0.5 * rho, 0.5 * rho);
        if (std::abs(drho) < 1.0e-12 * rho) break;
    }
    return rho;
}

} // namespace

Real WdProfile::rhoAt(Real rr) const {
    if (rr >= radius || r.empty()) return 0.0;
    auto it = std::upper_bound(r.begin(), r.end(), rr);
    const std::size_t hi = std::min<std::size_t>(it - r.begin(), r.size() - 1);
    if (hi == 0) return rho.front();
    const std::size_t lo = hi - 1;
    const Real f = (rr - r[lo]) / std::max(r[hi] - r[lo], Real(1.0e-30));
    return rho[lo] + f * (rho[hi] - rho[lo]);
}

WdProfile buildWdProfile(const Eos& eos, const ReactionNetwork& net, Real rho_c,
                         Real T_iso, const std::vector<Real>& X, int nshells) {
    WdProfile prof;
    prof.rho_c = rho_c;
    prof.T_iso = T_iso;
    const Real abar = net.abar(X.data());
    const Real ye = net.ye(X.data());

    // Estimate the radius scale from the non-relativistic polytrope and
    // integrate a bit beyond it.
    const Real r_guess = 1.1e9 * std::pow(rho_c / 1.0e6, -1.0 / 6.0);
    const Real dr = 2.5 * r_guess / nshells;

    EosState s;
    s.rho = rho_c;
    s.T = T_iso;
    s.abar = abar;
    s.ye = ye;
    eos.rhoT(s);
    Real p = s.p;
    Real rho = rho_c;
    Real m = 0.0;
    const Real rho_cut = 1.0e-5 * rho_c;

    prof.r.push_back(0.0);
    prof.rho.push_back(rho_c);
    for (int i = 1; i <= nshells; ++i) {
        const Real r0 = (i - 1) * dr;
        const Real r1 = i * dr;
        const Real rmid = 0.5 * (r0 + r1);
        // Midpoint update of mass and pressure (RK2).
        const Real m_mid = m + 4.0 * constants::pi * r0 * r0 * rho * (0.5 * dr);
        const Real g_mid =
            rmid > 0 ? -constants::G_newton * m_mid / (rmid * rmid) : 0.0;
        const Real p_new = p + g_mid * rho * dr;
        if (p_new <= 0.0) break;
        const Real rho_new = rhoOfP(eos, p_new, T_iso, abar, ye, rho);
        m += 4.0 * constants::pi * rmid * rmid * 0.5 * (rho + rho_new) * dr;
        p = p_new;
        rho = rho_new;
        prof.r.push_back(r1);
        prof.rho.push_back(rho);
        if (rho < rho_cut) break;
    }
    prof.radius = prof.r.back();
    prof.mass = m;
    return prof;
}

WdCollision WdCollisionParams::build(const ReactionNetwork& net) const {
    const WdCollisionParams& p = *this;
    WdCollision out;
    out.params = p;

    Eos eos{HelmLiteEos{}};
    const int nspec = net.nspec();
    // 50/50 carbon/oxygen star (or pure carbon for 2-species networks).
    std::vector<Real> Xstar(nspec, 0.0);
    const int ic12 = net.speciesIndex("c12");
    const int io16 = net.speciesIndex("o16");
    if (ic12 >= 0 && io16 >= 0) {
        Xstar[ic12] = 0.5;
        Xstar[io16] = 0.5;
    } else if (ic12 >= 0) {
        Xstar[ic12] = 1.0;
    } else {
        Xstar[0] = 1.0;
    }

    out.profile = buildWdProfile(eos, net, p.rho_c, p.T_star, Xstar);

    const Real L = p.domain_width;
    Box domain({0, 0, 0}, {p.ncell - 1, p.ncell - 1, p.ncell - 1});
    Geometry geom(domain, {-0.5 * L, -0.5 * L, -0.5 * L}, {0.5 * L, 0.5 * L, 0.5 * L});
    AmrInfo info;
    info.max_grid_size = p.max_grid_size;
    info.nranks = p.nranks;

    CastroOptions opt;
    opt.cfl = p.cfl;
    opt.bc = DomainBC::allOutflow();
    opt.gravity = p.gravity;
    opt.do_react = p.do_react;
    opt.react.T_min = 1.0e8;
    opt.react.rho_min = 1.0e4;
    // Burn with the stiff tail on the host: the collision's reacting
    // interface is exactly the many-quiescent-zones-plus-stiff-hot-spots
    // distribution the stiffness sort and hybrid tail are built for
    // (EXPERIMENTS.md E14).
    opt.react.batch.hybrid_cpu_tail = true;
    // Burn cost dominates and is well modeled by integrator steps, but
    // the EOS/gravity side is not; the Hybrid metric (work blended with
    // measured wall time) balances best on this workload (E9 calibration).
    opt.rebalance.cost.metric = CostMetric::Hybrid;

    const Real xc = 0.5 * p.separation_in_diameters * (2.0 * out.profile.radius);
    const WdProfile& prof = out.profile;
    const Real vx = p.approach_velocity;
    Castro::InitFn init = [=](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.X = Xstar;
        const Real r1 = std::sqrt((x + xc) * (x + xc) + y * y + z * z);
        const Real r2 = std::sqrt((x - xc) * (x - xc) + y * y + z * z);
        const Real rho1 = prof.rhoAt(r1);
        const Real rho2 = prof.rhoAt(r2);
        if (rho1 > p.ambient_rho) {
            zn.rho = rho1;
            zn.T = p.T_star;
            zn.vel = {vx, 0, 0}; // left star moves right
        } else if (rho2 > p.ambient_rho) {
            zn.rho = rho2;
            zn.T = p.T_star;
            zn.vel = {-vx, 0, 0};
        } else {
            zn.rho = p.ambient_rho;
            zn.T = p.ambient_T;
        }
        return zn;
    };
    out.castro = std::make_unique<Castro>(geom, info, net, eos, opt, std::move(init));
    out.castro->init();
    return out;
}

WdCollision WdCollisionParams::build() const {
    auto net = std::make_unique<ReactionNetwork>(makeNetworkByName(network));
    WdCollision out = build(*net);
    out.network = std::move(net);
    return out;
}

Real WdCollision::runToIgnition(Real t_max, int max_steps) {
    while (castro->time() < t_max && castro->stepCount() < max_steps) {
        if (castro->maxTemperature() >= params.ignition_T) {
            return castro->time();
        }
        const Real dt = std::min(castro->estimateDt(), t_max - castro->time());
        castro->step(dt);
    }
    return castro->maxTemperature() >= params.ignition_T ? castro->time() : -1.0;
}

} // namespace exa::castro
