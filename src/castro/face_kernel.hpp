#pragma once

#include "core/array4.hpp"
#include "core/real.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace exa::castro {

// Pointer-plus-stride face kernels: the one implementation of the MC
// slope and the PPM edges, shared by the Castro flux sweep and the
// MAESTRO advection sweep. `p` points at q(i,j,k,n) and `s` is the
// element distance between neighbours along the sweep dimension
// (faceStride), so a caller derives both once per face instead of once
// per access through IntVect::basis.

// Element distance between neighbours of q along dimension d.
template <typename T>
EXA_FORCE_INLINE std::int64_t faceStride(const Array4<T>& q, int d) {
    return d == 0 ? 1 : (d == 1 ? q.jstride : q.kstride);
}

// MC-limited slope of the zone at p.
EXA_HOST_DEVICE EXA_FORCE_INLINE Real mcSlopeAt(const Real* p, std::int64_t s) {
    const Real qm = p[-s];
    const Real q0 = p[0];
    const Real qp = p[s];
    const Real dl = q0 - qm;
    const Real dr = qp - q0;
    if (dl * dr <= 0.0) return 0.0;
    const Real dc = 0.5 * (dl + dr);
    const Real lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    return std::copysign(std::min(std::abs(dc), lim), dc);
}

// Limited PPM parabola edges of the zone at p: fourth-order interface
// values at its low and high faces, then CW84 monotonization. Reads
// p[-2s] .. p[2s].
EXA_HOST_DEVICE EXA_FORCE_INLINE void ppmEdgesAt(const Real* p, std::int64_t s,
                                                  Real& qm, Real& qp) {
    const Real q0 = p[0];
    qm = (7.0 / 12.0) * (p[-s] + q0) - (1.0 / 12.0) * (p[-2 * s] + p[s]);
    qp = (7.0 / 12.0) * (q0 + p[s]) - (1.0 / 12.0) * (p[-s] + p[2 * s]);
    if ((qp - q0) * (q0 - qm) <= 0.0) {
        qm = q0;
        qp = q0;
        return;
    }
    const Real d = qp - qm;
    const Real t = 6.0 * (q0 - 0.5 * (qp + qm));
    if (d * t > d * d) qm = 3.0 * q0 - 2.0 * qp;
    if (-(d * d) > d * t) qp = 3.0 * q0 - 2.0 * qm;
}

} // namespace exa::castro
