#include "core/parallel_for.hpp"
#include "mesh/interp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace exa;

namespace {

MultiFab makeLevel(const Box& domain, int max_size, int ncomp, int ngrow) {
    BoxArray ba(domain);
    ba.maxSize(max_size);
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, ncomp, ngrow);
    mf.setVal(0.0);
    return mf;
}

void fillLinear(MultiFab& mf, Real a, Real b, Real c, Real d, int ng) {
    for (std::size_t i = 0; i < mf.size(); ++i) {
        auto arr = mf.array(static_cast<int>(i));
        const Box gb = grow(mf.box(static_cast<int>(i)), ng);
        for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
            for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                for (int ii = gb.smallEnd(0); ii <= gb.bigEnd(0); ++ii)
                    arr(ii, j, k, 0) = a + b * (ii + 0.5) + c * (j + 0.5) + d * (k + 0.5);
    }
}

} // namespace

TEST(PcInterp, InjectsCoarseValue) {
    Box cbox({0, 0, 0}, {3, 3, 3});
    Box fbox = refine(cbox, 2);
    std::vector<Real> cdata(cbox.numPts()), fdata(fbox.numPts(), 0.0);
    Array4<Real> c(cdata.data(), cbox, 1);
    Array4<Real> f(fdata.data(), fbox, 1);
    for (int k = 0; k < 4; ++k)
        for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i) c(i, j, k) = i + 10 * j + 100 * k;
    pcInterp(f, Array4<const Real>(cdata.data(), cbox, 1), fbox, 2, 0, 0, 1);
    EXPECT_DOUBLE_EQ(f(0, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(f(1, 1, 1), 0.0);
    EXPECT_DOUBLE_EQ(f(2, 0, 0), 1.0);
    EXPECT_DOUBLE_EQ(f(7, 7, 7), 3 + 30 + 300);
}

TEST(ConslinInterp, ExactForLinearData) {
    // A linear function of zone-center position (in coarse units) must be
    // reproduced exactly by limited-linear interpolation in the interior.
    Box cbox({0, 0, 0}, {7, 7, 7});
    Box fbox = refine(Box({1, 1, 1}, {6, 6, 6}), 2); // interior (stencil needs nbrs)
    std::vector<Real> cdata(cbox.numPts()), fdata(refine(cbox, 2).numPts(), 0.0);
    Array4<Real> c(cdata.data(), cbox, 1);
    Array4<Real> f(fdata.data(), refine(cbox, 2), 1);
    const Real a = 3.0, bx = 1.5, by = -2.0, bz = 0.5;
    for (int k = 0; k < 8; ++k)
        for (int j = 0; j < 8; ++j)
            for (int i = 0; i < 8; ++i)
                c(i, j, k) = a + bx * (i + 0.5) + by * (j + 0.5) + bz * (k + 0.5);
    conslinInterp(f, Array4<const Real>(cdata.data(), cbox, 1), fbox, 2, 0, 0, 1);
    for (int k = fbox.smallEnd(2); k <= fbox.bigEnd(2); ++k)
        for (int j = fbox.smallEnd(1); j <= fbox.bigEnd(1); ++j)
            for (int i = fbox.smallEnd(0); i <= fbox.bigEnd(0); ++i) {
                // Fine-zone center in coarse index units:
                const Real xc = (i + 0.5) / 2.0;
                const Real yc = (j + 0.5) / 2.0;
                const Real zc = (k + 0.5) / 2.0;
                ASSERT_NEAR(f(i, j, k), a + bx * xc + by * yc + bz * zc, 1e-12);
            }
}

class ConslinConservation : public ::testing::TestWithParam<int> {};

TEST_P(ConslinConservation, FineAverageEqualsCoarse) {
    const int ratio = GetParam();
    Box cbox({0, 0, 0}, {7, 7, 7});
    Box fbox = refine(cbox, ratio);
    std::vector<Real> cdata(cbox.numPts()), fdata(fbox.numPts());
    Array4<Real> c(cdata.data(), cbox, 1);
    Array4<Real> f(fdata.data(), fbox, 1);
    // Nonlinear data so limiting engages.
    for (int k = 0; k < 8; ++k)
        for (int j = 0; j < 8; ++j)
            for (int i = 0; i < 8; ++i)
                c(i, j, k) = std::sin(1.7 * i) * std::cos(0.9 * j) + 0.3 * k * k;
    // Interpolate under the interior coarse zones only: their slopes read
    // one coarse neighbour each way, and the coarse array has no ghosts.
    conslinInterp(f, Array4<const Real>(cdata.data(), cbox, 1),
                  refine(grow(cbox, -1), ratio), ratio, 0, 0, 1);
    // Conservation: fine average over each interior coarse zone == coarse.
    for (int k = 1; k < 7; ++k)
        for (int j = 1; j < 7; ++j)
            for (int i = 1; i < 7; ++i) {
                Real s = 0;
                for (int kk = 0; kk < ratio; ++kk)
                    for (int jj = 0; jj < ratio; ++jj)
                        for (int ii = 0; ii < ratio; ++ii)
                            s += f(i * ratio + ii, j * ratio + jj, k * ratio + kk);
                ASSERT_NEAR(s / (ratio * ratio * ratio), c(i, j, k), 1e-12);
            }
}

INSTANTIATE_TEST_SUITE_P(Ratios, ConslinConservation, ::testing::Values(2, 4));

TEST(AverageDown, ExactMeanOfChildren) {
    Box cdom({0, 0, 0}, {7, 7, 7});
    MultiFab crse = makeLevel(cdom, 4, 1, 0);
    MultiFab fine = makeLevel(refine(cdom, 2), 8, 1, 0);
    for (std::size_t i = 0; i < fine.size(); ++i) {
        auto a = fine.array(static_cast<int>(i));
        ParallelFor(fine.box(static_cast<int>(i)),
                    [=](int ii, int j, int k) { a(ii, j, k) = ii + 2.0 * j + 3.0 * k; });
    }
    averageDown(crse, fine, 2, 0, 0, 1);
    for (std::size_t i = 0; i < crse.size(); ++i) {
        auto c = crse.const_array(static_cast<int>(i));
        const Box& vb = crse.box(static_cast<int>(i));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int ii = vb.smallEnd(0); ii <= vb.bigEnd(0); ++ii) {
                    // mean of ii' in {2ii, 2ii+1} etc: (2ii+0.5) + 2(2j+0.5) + 3(2k+0.5)
                    const Real expect = (2 * ii + 0.5) + 2.0 * (2 * j + 0.5) + 3.0 * (2 * k + 0.5);
                    ASSERT_NEAR(c(ii, j, k), expect, 1e-12);
                }
    }
}

TEST(AverageDown, ConservesSum) {
    Box cdom({0, 0, 0}, {7, 7, 7});
    MultiFab crse = makeLevel(cdom, 4, 1, 0);
    MultiFab fine = makeLevel(refine(cdom, 4), 16, 1, 0);
    for (std::size_t i = 0; i < fine.size(); ++i) {
        auto a = fine.array(static_cast<int>(i));
        ParallelFor(fine.box(static_cast<int>(i)), [=](int ii, int j, int k) {
            a(ii, j, k) = std::sin(0.3 * ii * j + 0.1 * k);
        });
    }
    averageDown(crse, fine, 4, 0, 0, 1);
    // Total integral (sum * cell volume) matches: crse volume = 64 * fine.
    EXPECT_NEAR(crse.sum(0) * 64.0, fine.sum(0), 1e-8);
}

TEST(FillPatchTwoLevels, CopiesFineWhereAvailableInterpolatesElsewhere) {
    Box cdom({0, 0, 0}, {15, 15, 15});
    Geometry cgeom(cdom, {0, 0, 0}, {1, 1, 1}); // non-periodic: test data is linear
    Geometry fgeom = cgeom.refined(2);

    MultiFab crse = makeLevel(cdom, 8, 1, 1);
    fillLinear(crse, 1.0, 2.0, 0.5, -1.0, 1);

    // Fine level covers only the center region.
    BoxArray fba(refine(Box({4, 4, 4}, {11, 11, 11}), 2));
    fba.maxSize(8);
    DistributionMapping fdm(fba, 2);
    MultiFab fine_src(fba, fdm, 1, 0);
    // Fill fine with the SAME linear function in fine zone units: the
    // coarse linear f(x) = 1 + 2x + 0.5y - z with x in coarse units maps
    // to fine index if as x = (if+0.5)/2.
    for (std::size_t i = 0; i < fine_src.size(); ++i) {
        auto a = fine_src.array(static_cast<int>(i));
        ParallelFor(fine_src.box(static_cast<int>(i)), [=](int ii, int j, int k) {
            a(ii, j, k) = 1.0 + 2.0 * (ii + 0.5) / 2 + 0.5 * (j + 0.5) / 2 - (k + 0.5) / 2;
        });
    }

    // Destination: fine grids slightly larger than the fine source.
    BoxArray dba(refine(Box({2, 2, 2}, {13, 13, 13}), 2));
    dba.maxSize(12);
    DistributionMapping ddm(dba, 2);
    MultiFab dst(dba, ddm, 1, 2);
    dst.setVal(0.0);

    fillPatchTwoLevels(dst, fine_src, crse, cgeom, fgeom, 2, 0, 0, 1, 2);

    // Everywhere (valid + ghosts inside the fine domain) must equal the
    // linear function — fine where covered, interpolated (exact for
    // linear) elsewhere.
    for (std::size_t i = 0; i < dst.size(); ++i) {
        auto a = dst.const_array(static_cast<int>(i));
        const Box gb = grow(dst.box(static_cast<int>(i)), 2);
        for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
            for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                for (int ii = gb.smallEnd(0); ii <= gb.bigEnd(0); ++ii) {
                    const Real expect =
                        1.0 + 2.0 * (ii + 0.5) / 2 + 0.5 * (j + 0.5) / 2 - (k + 0.5) / 2;
                    ASSERT_NEAR(a(ii, j, k), expect, 1e-11)
                        << ii << ' ' << j << ' ' << k;
                }
    }
}
