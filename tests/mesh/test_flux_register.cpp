#include "../support/check_every_launch.hpp"
#include "core/executor.hpp"
#include "mesh/flux_register.hpp"
#include "perf/device_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace exa;

namespace {

// Register for one fine box (fine index space) over ratio 2.
FluxRegister makeReg(const Box& fine_box, int ncomp = 2, int nranks = 2) {
    BoxArray fba(fine_box);
    DistributionMapping fdm(fba, nranks);
    FluxRegister reg;
    reg.define(fba, fdm, 2, ncomp);
    return reg;
}

// The per-box forms the fused register operations replaced: one gather,
// copy and saxpy per register fab, one launch per register fab, and one
// += launch per (fab, side, masked piece, coarse fab), in that order.
void crseAddPerBox(FluxRegister& reg, const std::array<MultiFab, 3>& crse_flux, Real scale) {
    for (int d = 0; d < 3; ++d) {
        for (std::size_t i = 0; i < reg.mf(d).size(); ++i) {
            const int fi = static_cast<int>(i);
            const Box& fb = reg.mf(d).box(fi);
            FArrayBox tmp(fb, reg.nComp());
            tmp.setVal(0.0);
            for (const auto& [j, isect] : crse_flux[d].boxArray().intersections(fb))
                tmp.copyFrom(crse_flux[d].fab(j), isect, 0, isect, 0, reg.nComp());
            reg.mf(d).fab(fi).saxpy(scale, tmp, fb, 0, 0, reg.nComp());
        }
    }
}

void fineAddPerBox(FluxRegister& reg, const std::array<MultiFab, 3>& fine_flux, Real scale) {
    const int r = reg.ratio();
    const Real w = scale / (static_cast<Real>(r) * r);
    for (int d = 0; d < 3; ++d) {
        for (std::size_t i = 0; i < reg.mf(d).size(); ++i) {
            const int fi = static_cast<int>(i);
            auto a = reg.mf(d).array(fi);
            auto f = fine_flux[d].const_array(fi);
            ParallelFor(reg.mf(d).box(fi), reg.nComp(), [=](int i0, int j0, int k0, int n) {
                Real s = 0.0;
                if (d == 0) {
                    for (int kk = 0; kk < r; ++kk)
                        for (int jj = 0; jj < r; ++jj)
                            s += f(i0 * r, j0 * r + jj, k0 * r + kk, n);
                } else if (d == 1) {
                    for (int kk = 0; kk < r; ++kk)
                        for (int ii = 0; ii < r; ++ii)
                            s += f(i0 * r + ii, j0 * r, k0 * r + kk, n);
                } else {
                    for (int jj = 0; jj < r; ++jj)
                        for (int ii = 0; ii < r; ++ii)
                            s += f(i0 * r + ii, j0 * r + jj, k0 * r, n);
                }
                a(i0, j0, k0, n) += w * s;
            });
        }
    }
}

void refluxPerBox(const FluxRegister& reg, MultiFab& crse, const Geometry& geom) {
    const BoxArray& cba = reg.crseBoxArray();
    const Box& dom = geom.domain();
    for (int d = 0; d < 3; ++d) {
        const Real dxinv = 1.0 / geom.cellSize(d);
        for (std::size_t i = 0; i < cba.size(); ++i) {
            const Box& cb = cba[i];
            for (int side = 0; side < 2; ++side) {
                const bool lo = side == 0;
                const int fn = lo ? cb.smallEnd(d) : cb.bigEnd(d) + 1;
                const int zn = lo ? fn - 1 : fn;
                IntVect zlo = cb.smallEnd();
                IntVect zhi = cb.bigEnd();
                zlo[d] = zn;
                zhi[d] = zn;
                Box zplane(zlo, zhi);
                if (zn < dom.smallEnd(d) || zn > dom.bigEnd(d)) {
                    if (!geom.isPeriodic(d)) continue;
                    zplane.shift(d, zn < dom.smallEnd(d) ? dom.length(d) : -dom.length(d));
                }
                std::vector<Box> pieces{zplane};
                for (const auto& [jf, isect] : cba.intersections(zplane)) {
                    std::vector<Box> next;
                    for (const Box& p : pieces)
                        for (const Box& q : boxDiff(p, cba[jf])) next.push_back(q);
                    pieces = std::move(next);
                }
                const Real sgn = lo ? -1.0 : 1.0;
                auto rg = reg.mf(d).const_array(static_cast<int>(i));
                for (const Box& p : pieces) {
                    for (const auto& [j, isect] : crse.boxArray().intersections(p)) {
                        auto u = crse.array(j);
                        ParallelFor(isect, reg.nComp(), [=](int i0, int j0, int k0, int n) {
                            IntVect fp{i0, j0, k0};
                            fp[d] = fn;
                            u(i0, j0, k0, n) += sgn * dxinv * rg(fp.x, fp.y, fp.z, n);
                        });
                    }
                }
            }
        }
    }
}

void fillNoise(MultiFab& mf, Real phase) {
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.array(static_cast<int>(f));
        const Box b = mf.fabbox(static_cast<int>(f));
        for (int n = 0; n < mf.nComp(); ++n)
            for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
                for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                    for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i)
                        a(i, j, k, n) = std::sin(phase + 1.1 * i + 2.3 * j * j + 0.7 * k * k * k +
                                                 3.1 * n) *
                                        std::exp(0.1 * i - 0.05 * j);
    }
}

std::vector<Real> bits(const MultiFab& mf) {
    std::vector<Real> out;
    for (std::size_t f = 0; f < mf.size(); ++f) {
        auto a = mf.const_array(static_cast<int>(f));
        const Box& b = mf.box(static_cast<int>(f));
        for (int n = 0; n < mf.nComp(); ++n)
            for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
                for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                    for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i)
                        out.push_back(a(i, j, k, n));
    }
    return out;
}

} // namespace

TEST(FluxRegister, DefineBuildsCoarsenedFaceBoxes) {
    // Fine box {4..11}^3 at ratio 2 -> coarse image {2..5}^3; the d=0
    // register fab covers its x faces {2..6} x {2..5} x {2..5}.
    FluxRegister reg = makeReg(Box({4, 4, 4}, {11, 11, 11}));
    ASSERT_TRUE(reg.isDefined());
    EXPECT_EQ(reg.ratio(), 2);
    ASSERT_EQ(reg.crseBoxArray().size(), 1u);
    EXPECT_EQ(reg.crseBoxArray()[0], Box({2, 2, 2}, {5, 5, 5}));
    EXPECT_EQ(reg.mf(0).box(0), Box({2, 2, 2}, {6, 5, 5}));
    EXPECT_EQ(reg.mf(1).box(0), Box({2, 2, 2}, {5, 6, 5}));
    EXPECT_EQ(reg.mf(2).box(0), Box({2, 2, 2}, {5, 5, 6}));
    EXPECT_EQ(reg.absSum(), 0.0);
}

TEST(FluxRegister, CoincidentFluxesCancelExactly) {
    // When the area-averaged fine flux equals the coarse flux on every
    // interface face (both uniform here), the accumulated mismatch is
    // exactly zero: -F + (0.5 + 0.5) * <F> = 0 in floating point too.
    const int nc = 2;
    const Box fine_box({4, 4, 4}, {11, 11, 11});
    FluxRegister reg = makeReg(fine_box, nc);

    BoxArray cba(Box({0, 0, 0}, {7, 7, 7}));
    cba.maxSize(4);
    DistributionMapping cdm(cba, 2);
    auto crse_flux = makeFluxFabs(cba, cdm, nc);
    for (auto& mf : crse_flux) mf.setVal(3.0);

    BoxArray fba(fine_box);
    DistributionMapping fdm(fba, 2);
    auto fine_flux = makeFluxFabs(fba, fdm, nc);
    for (auto& mf : fine_flux) mf.setVal(3.0);

    reg.CrseAdd(crse_flux, -1.0);      // one coarse step, stages folded
    reg.FineAdd(fine_flux, 0.5);       // substep 1
    reg.FineAdd(fine_flux, 0.5);       // substep 2
    EXPECT_EQ(reg.absSum(), 0.0);
}

TEST(FluxRegister, CrseAddCountsSharedCoarseFacesOnce) {
    // Adjacent coarse boxes both carry their shared face in their flux
    // fabs; the register must gather it once, not add both copies.
    const int nc = 1;
    FluxRegister reg = makeReg(Box({4, 4, 4}, {11, 11, 11}), nc);

    BoxArray cba(Box({0, 0, 0}, {7, 7, 7}));
    cba.maxSize(4); // boxes split at x=4: shared face plane x=4
    DistributionMapping cdm(cba, 2);
    auto crse_flux = makeFluxFabs(cba, cdm, nc);
    for (auto& mf : crse_flux) mf.setVal(5.0);

    reg.CrseAdd(crse_flux, 1.0);
    // Every register face (x faces {2..6}, incl. the shared plane x=4)
    // holds exactly 5.0.
    auto a = reg.mf(0).const_array(0);
    const Box& fb = reg.mf(0).box(0);
    for (int k = fb.smallEnd(2); k <= fb.bigEnd(2); ++k)
        for (int j = fb.smallEnd(1); j <= fb.bigEnd(1); ++j)
            for (int i = fb.smallEnd(0); i <= fb.bigEnd(0); ++i)
                ASSERT_EQ(a(i, j, k, 0), 5.0) << i << ' ' << j << ' ' << k;
}

TEST(FluxRegister, FineAddAreaAveragesFineFaces) {
    // Fine x-fluxes varying with j: the register face gets the mean of
    // the ratio^2 fine faces under it, times the scale.
    const int nc = 1;
    const Box fine_box({0, 0, 0}, {3, 3, 3});
    FluxRegister reg = makeReg(fine_box, nc);

    BoxArray fba(fine_box);
    DistributionMapping fdm(fba, 2);
    auto fine_flux = makeFluxFabs(fba, fdm, nc);
    for (auto& mf : fine_flux) mf.setVal(0.0);
    {
        auto f = fine_flux[0].array(0);
        const Box& fb = fine_flux[0].box(0);
        for (int k = fb.smallEnd(2); k <= fb.bigEnd(2); ++k)
            for (int j = fb.smallEnd(1); j <= fb.bigEnd(1); ++j)
                for (int i = fb.smallEnd(0); i <= fb.bigEnd(0); ++i)
                    f(i, j, k, 0) = 1.0 + j;
    }
    reg.FineAdd(fine_flux, 2.0);
    // Coarse face (0,0,0): fine faces j in {0,1} -> values {1,2}, mean
    // 1.5; scaled by 2.0 -> 3. Coarse face (0,1,0): j in {2,3} -> 3.5*2.
    auto r = reg.mf(0).const_array(0);
    EXPECT_DOUBLE_EQ(r(0, 0, 0, 0), 3.0);
    EXPECT_DOUBLE_EQ(r(0, 1, 0, 0), 7.0);
    EXPECT_DOUBLE_EQ(r(1, 0, 0, 0), 3.0);
    // y-register untouched by the x-flux fill.
    EXPECT_EQ(reg.mf(1).const_array(0)(0, 0, 0, 0), 0.0);
}

TEST(FluxRegister, RefluxCorrectsOnlyUncoveredNeighborZones) {
    // Constant register payload c: the coarse zone just outside each fine
    // face gains -+ c/dx; covered zones and zones off the transverse
    // extent stay untouched.
    const int nc = 1;
    const Real c = 2.0;
    FluxRegister reg = makeReg(Box({4, 4, 4}, {11, 11, 11}), nc);
    reg.setVal(c);

    const Box dom({0, 0, 0}, {7, 7, 7});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
    BoxArray cba(dom);
    cba.maxSize(4);
    DistributionMapping cdm(cba, 2);
    MultiFab crse(cba, cdm, nc, 0);
    crse.setVal(0.0);

    reg.Reflux(crse, geom);

    const Real dxinv = 8.0;
    auto value = [&](int i, int j, int k) {
        for (std::size_t f = 0; f < crse.size(); ++f) {
            if (crse.box(static_cast<int>(f)).contains(i, j, k)) {
                return crse.const_array(static_cast<int>(f))(i, j, k, 0);
            }
        }
        ADD_FAILURE() << "zone not found";
        return 0.0;
    };
    // Low-side x neighbor: -c/dx; high-side: +c/dx.
    EXPECT_DOUBLE_EQ(value(1, 3, 3), -c * dxinv);
    EXPECT_DOUBLE_EQ(value(6, 3, 3), c * dxinv);
    // Low-side y neighbor.
    EXPECT_DOUBLE_EQ(value(3, 1, 3), -c * dxinv);
    // Covered zones and zones outside the transverse extent: untouched.
    EXPECT_EQ(value(3, 3, 3), 0.0);
    EXPECT_EQ(value(1, 1, 3), 0.0);
    EXPECT_EQ(value(0, 3, 3), 0.0);
}

TEST(FluxRegister, RefluxHonorsDomainEdges) {
    // A fine box hugging the x-low domain edge: the outside zone of its
    // low face is beyond the domain. Non-periodic geometry drops the
    // correction; periodic geometry wraps it to the far side.
    const int nc = 1;
    const Real c = 4.0;
    const Box dom({0, 0, 0}, {7, 7, 7});
    BoxArray cba(dom);
    cba.maxSize(4);
    DistributionMapping cdm(cba, 2);

    for (const bool periodic : {false, true}) {
        FluxRegister reg = makeReg(Box({0, 0, 0}, {7, 7, 7}), nc); // crse {0..3}^3
        reg.setVal(c);
        Geometry geom(dom, {0, 0, 0}, {1, 1, 1},
                      periodic ? IntVect{1, 1, 1} : IntVect{0, 0, 0});
        MultiFab crse(cba, cdm, nc, 0);
        crse.setVal(0.0);
        reg.Reflux(crse, geom);

        const Real dxinv = 8.0;
        auto value = [&](int i, int j, int k) {
            for (std::size_t f = 0; f < crse.size(); ++f) {
                if (crse.box(static_cast<int>(f)).contains(i, j, k)) {
                    return crse.const_array(static_cast<int>(f))(i, j, k, 0);
                }
            }
            return std::numeric_limits<Real>::quiet_NaN();
        };
        // Interior high-side face at x=4 corrects zone 4 either way.
        EXPECT_DOUBLE_EQ(value(4, 2, 2), c * dxinv) << "periodic=" << periodic;
        // The low face at x=0: its outside zone is x=-1 -> wraps to 7.
        // One wrapped contribution per dimension lands on each far-edge
        // plane; probe a zone touched only by the x wrap.
        if (periodic) {
            EXPECT_DOUBLE_EQ(value(7, 2, 2), -c * dxinv);
        } else {
            EXPECT_EQ(value(7, 2, 2), 0.0);
        }
    }
}

TEST(FluxRegister, SetValAndClearResetState) {
    FluxRegister reg = makeReg(Box({0, 0, 0}, {3, 3, 3}), 2);
    reg.setVal(1.5);
    EXPECT_GT(reg.absSum(), 0.0);
    reg.setVal(0.0);
    EXPECT_EQ(reg.absSum(), 0.0);
    reg.clear();
    EXPECT_FALSE(reg.isDefined());
}

TEST(FluxRegister, FusedOpsMatchPerBoxReferenceOnEveryBackend) {
    // An L of three fine blocks over a coarse level of eight boxes (shared
    // coarse faces): the coarse zones outside the L's inner corner take a
    // += from two reflux items, and adjacent coarse flux fabs both carry
    // their shared face. CrseAdd, FineAdd and Reflux give the per-box
    // bits on every backend, Debug finds no two tags of a launch writing
    // one location, and the launches per call do not depend on the fine
    // fab count: CrseAdd one fab_setval, two fab_copy (colours of the
    // shared faces) and one fab_saxpy; FineAdd one; Reflux one per colour
    // of the corner, two.
    const int nc = 2;
    const Box dom({0, 0, 0}, {7, 7, 7});
    const Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
    BoxArray cba(dom);
    cba.maxSize(4);
    const DistributionMapping cdm(cba, 3);
    auto crse_flux = makeFluxFabs(cba, cdm, nc);
    for (int d = 0; d < 3; ++d) fillNoise(crse_flux[d], 0.3 * d);
    const std::vector<Box> ell{Box({2, 2, 2}, {3, 3, 3}), Box({4, 2, 2}, {5, 3, 3}),
                               Box({2, 4, 2}, {3, 5, 3})};

    for (const int chop : {4, 2}) {
        SCOPED_TRACE("fine chop " + std::to_string(chop));
        std::vector<Box> fine;
        for (const Box& b : ell) fine.push_back(refine(b, 2));
        BoxArray fba(fine);
        fba.maxSize(chop);
        const DistributionMapping fdm(fba, 3);
        auto fine_flux = makeFluxFabs(fba, fdm, nc);
        for (int d = 0; d < 3; ++d) fillNoise(fine_flux[d], 1.9 + 0.2 * d);

        auto run = [&](bool reference, Backend be, DeviceModel* per_op) {
            ScopedBackend sb(be);
            FluxRegister reg;
            reg.define(fba, fdm, 2, nc);
            MultiFab crse(cba, cdm, nc, 0);
            fillNoise(crse, 5.0);
            auto op = [&](int k, auto&& f) {
                if (per_op != nullptr) per_op[k].attach();
                f();
                if (per_op != nullptr) per_op[k].detach();
            };
            op(0, [&] { reference ? crseAddPerBox(reg, crse_flux, -0.7)
                                  : reg.CrseAdd(crse_flux, -0.7); });
            op(1, [&] { reference ? fineAddPerBox(reg, fine_flux, 0.35)
                                  : reg.FineAdd(fine_flux, 0.35); });
            reference ? fineAddPerBox(reg, fine_flux, 0.35) : reg.FineAdd(fine_flux, 0.35);
            op(2, [&] { reference ? refluxPerBox(reg, crse, geom) : reg.Reflux(crse, geom); });
            std::vector<std::vector<Real>> out{bits(crse)};
            for (int d = 0; d < 3; ++d) out.push_back(bits(reg.mf(d)));
            return out;
        };
        // Where the two corner items meet, their order shows in the bits:
        // 1 + 1e-16 - 1e-16 rounds to 1 - 2^-53 in list order (the x face
        // first) and to 1 in the reverse order.
        auto corner = [&](bool reference) {
            FluxRegister reg;
            reg.define(fba, fdm, 2, nc);
            reg.mf(0).setVal(1.25e-17); // times dxinv = 8: +1e-16
            reg.mf(1).setVal(-1.25e-17);
            reg.mf(2).setVal(0.0);
            MultiFab crse(cba, cdm, nc, 0);
            crse.setVal(1.0);
            reference ? refluxPerBox(reg, crse, geom) : reg.Reflux(crse, geom);
            return bits(crse);
        };
        const auto ref = run(true, Backend::Serial, nullptr);
        std::vector<Real> corner_ref;
        {
            ScopedBackend sb(Backend::Serial);
            corner_ref = corner(true);
        }
        CheckEveryLaunch check;
        for (const Backend be :
             {Backend::Serial, Backend::OpenMP, Backend::SimGpu, Backend::Debug}) {
            SCOPED_TRACE("backend " + std::to_string(static_cast<int>(be)));
            DeviceModel dev[3];
            EXPECT_EQ(run(false, be, dev), ref);
            {
                ScopedBackend sb(be);
                EXPECT_EQ(corner(false), corner_ref);
            }
            if (be != Backend::SimGpu) continue;
            EXPECT_EQ(dev[0].numLaunches(), 4);
            EXPECT_EQ(dev[0].kernelStats().at("fab_setval").launches, 1);
            EXPECT_EQ(dev[0].kernelStats().at("fab_copy").launches, 2);
            EXPECT_EQ(dev[0].kernelStats().at("fab_saxpy").launches, 1);
            EXPECT_EQ(dev[1].numLaunches(), 1);
            EXPECT_EQ(dev[1].kernelStats().at("fluxreg_fine_add").launches, 1);
            EXPECT_EQ(dev[2].numLaunches(), 2);
            EXPECT_EQ(dev[2].kernelStats().at("fluxreg_reflux").launches, 2);
        }
        // The per-box reference makes one launch per box or item.
        DeviceModel dev[3];
        run(true, Backend::SimGpu, dev);
        EXPECT_GT(dev[0].numLaunches(), 4);
        EXPECT_EQ(dev[1].numLaunches(), static_cast<std::int64_t>(3 * fba.size()));
        EXPECT_GT(dev[2].numLaunches(), 2);
    }
}
