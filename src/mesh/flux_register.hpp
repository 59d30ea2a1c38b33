#pragma once

#include "mesh/gather_plan.hpp"
#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace exa {

// The coarse/fine flux mismatch accumulator of subcycled AMR (mirrors
// amrex::FluxRegister, simplified to the cell-centered uniform-ratio case
// this framework uses).
//
// A coarse zone adjacent to a coarse/fine boundary advances with the flux
// its own level computed at that face, while the covered region advances
// with the (finer, substepped) fluxes of the fine level. Conservation
// requires the coarse zone to have seen the time-and-area average of the
// fine fluxes instead. The register accumulates, per coarse face of the
// coarse/fine interface,
//
//   delta_Phi = sum_stages(-w_s * dt_c * F_crse)
//             + sum_substeps sum_stages(+w_s * dt_f * <F_fine>_area)
//
// (w_s = the RK stage weights, <.>_area = the mean over the ratio^2 fine
// faces under one coarse face), i.e. dt_c * (<F_fine>_{t,A} - F_crse).
// Reflux() then corrects every uncovered coarse zone adjacent to the
// interface by -+ delta_Phi / dx, restoring global conservation to
// round-off.
//
// Storage: one MultiFab per dimension whose "boxes" are the face boxes of
// the coarsened fine BoxArray (one register fab per fine box, owned by the
// fine box's rank, so registers migrate with their level under the
// Rebalancer). Faces interior to the fine union carry values too, but
// Reflux touches only boundary planes and masks zones covered by the
// (coarsened) fine level, so they never act.
class FluxRegister {
public:
    FluxRegister() = default;

    // Register for the interface between a fine level (ba, dm) and the
    // coarse level below it. `ncomp` is the state component count; the
    // contents start at zero.
    void define(const BoxArray& fine_ba, const DistributionMapping& fine_dm,
                int ratio, int ncomp);
    void clear();
    bool isDefined() const { return m_ncomp > 0; }

    int ratio() const { return m_ratio; }
    int nComp() const { return m_ncomp; }
    // The fine BoxArray in coarse index space (the reflux mask).
    const BoxArray& crseBoxArray() const { return m_cba; }

    void setVal(Real v);

    // Coarse side: accumulate scale * (coarse face fluxes) on every
    // register face. `crse_flux[d]` holds the coarse level's face fluxes
    // for dimension d, one fab per coarse box on surroundingFaces(box, d)
    // (the layout molRhs's `fluxes` out-param produces). Call once per RK
    // stage with scale = -(stage weight) * dt_crse.
    void CrseAdd(const std::array<MultiFab, 3>& crse_flux, Real scale);

    // Fine side: accumulate scale * (area-mean of the fine face fluxes
    // under each coarse register face). `fine_flux[d]` is the fine
    // level's face-flux MultiFab (same fab indexing as the fine BoxArray
    // the register was defined with). Call once per RK stage of every
    // substep with scale = +(stage weight) * dt_fine.
    void FineAdd(const std::array<MultiFab, 3>& fine_flux, Real scale);

    // Apply the accumulated correction to `crse`: for each register face
    // on the boundary of a (coarsened) fine box, the adjacent outside
    // coarse zone gets -+ delta_Phi / dx_d (minus on the low side of the
    // fine box, plus on the high side). Zones covered by the fine level
    // are skipped; zones beyond a periodic domain edge wrap; zones beyond
    // a non-periodic edge are dropped (the domain boundary owns them).
    void Reflux(MultiFab& crse, const Geometry& crse_geom);

    // Register payload for dimension d (snapshot capture, diagnostics).
    MultiFab& mf(int d) { return m_reg[d]; }
    const MultiFab& mf(int d) const { return m_reg[d]; }

    // Sum of |delta_Phi| over every register face of every dimension and
    // component — a scalar "how much conservation was at stake" probe for
    // tests and the subcycling bench.
    Real absSum() const;

private:
    // One += of Reflux: the coarse zones `zones` of coarse fab `crse_fab`
    // outside face plane `face` (along `dim`) of register fab `reg_fab`.
    struct RefluxItem {
        int dim = 0;
        int reg_fab = 0;
        int crse_fab = 0;
        int face = 0;
        Real sign = 1.0; // -1 on the low side of the fine box, +1 on the high
        Box zones;
    };
    void buildReflux(const BoxArray& crse_ba, const Geometry& crse_geom);

    BoxArray m_cba;                // coarsened fine boxes (zone space)
    std::array<MultiFab, 3> m_reg; // face-box fabs, one per fine box
    int m_ratio = 0;
    int m_ncomp = 0;
    // Reflux's items in list order, their colours, and the coarse layout
    // (BoxArray id, domain, periodicity) they were built for.
    std::vector<RefluxItem> m_reflux;
    LaunchColors m_reflux_colors;
    std::uint64_t m_reflux_ba = 0;
    Box m_reflux_domain;
    IntVect m_reflux_period{0, 0, 0};
};

// Face-flux scratch for one level: per dimension, a MultiFab whose fab i
// covers surroundingFaces(ba[i], d) — the layout molRhs fills through its
// `fluxes` out-param and both register sides consume.
std::array<MultiFab, 3> makeFluxFabs(const BoxArray& ba,
                                     const DistributionMapping& dm, int ncomp);

} // namespace exa
