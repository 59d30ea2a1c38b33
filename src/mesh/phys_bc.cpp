#include "mesh/phys_bc.hpp"

#include "core/parallel_for.hpp"

#include <algorithm>

namespace exa {

void fillPhysicalBoundary(MultiFab& mf, const Geometry& geom, const DomainBC& bc,
                          const std::array<std::vector<int>, 3>& odd_comps) {
    const Box& dom = geom.domain();
    const std::size_t nc = static_cast<std::size_t>(mf.nComp());
    // Fill dimension by dimension so edges/corners compose correctly
    // (each pass may read ghost zones filled by the previous pass). One
    // launch per dimension over every (fab, side, component) tag: a
    // pass writes outside the domain along d and reads only inside it.
    for (int d = 0; d < 3; ++d) {
        const int dlo = dom.smallEnd(d), dhi = dom.bigEnd(d);
        ParallelFor(KernelInfo{}, 2 * nc * mf.size(), 1, [&](std::size_t t) {
            const int f = static_cast<int>(t / (2 * nc));
            const int side = static_cast<int>(t / nc % 2);
            const int n = static_cast<int>(t % nc);
            auto a = mf.array(f);
            const Box gb = mf.fabbox(f);
            Box region;
            if (side == 0 && gb.smallEnd(d) < dlo && bc(d, 0) != PhysBC::Periodic) {
                IntVect hi = gb.bigEnd();
                hi[d] = dlo - 1;
                region = Box(gb.smallEnd(), hi);
            } else if (side == 1 && gb.bigEnd(d) > dhi && bc(d, 1) != PhysBC::Periodic) {
                IntVect lo = gb.smallEnd();
                lo[d] = dhi + 1;
                region = Box(lo, gb.bigEnd());
            }
            // Reflect mirrors across the face; otherwise copy the edge zone.
            const bool reflect = bc(d, side) == PhysBC::Reflect;
            const int mirror = side == 0 ? 2 * dlo - 1 : 2 * dhi + 1;
            const int edge = side == 0 ? dlo : dhi;
            const bool odd = std::find(odd_comps[d].begin(), odd_comps[d].end(), n) !=
                             odd_comps[d].end();
            const Real sgn = (reflect && odd) ? -1.0 : 1.0;
            return std::pair{region, [=](int i, int j, int k) {
                IntVect src{i, j, k};
                src[d] = reflect ? mirror - src[d] : edge;
                a(i, j, k, n) = sgn * a(src.x, src.y, src.z, n);
            }};
        });
    }
}

} // namespace exa
