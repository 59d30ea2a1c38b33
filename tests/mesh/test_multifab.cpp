#include "core/events.hpp"
#include "mesh/multifab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

using namespace exa;

namespace {

// A smooth periodic test function of the global index.
Real f(int i, int j, int k, int n, int nx) {
    auto wrap = [&](int v) { return ((v % nx) + nx) % nx; };
    return std::sin(2 * constants::pi * wrap(i) / nx) +
           std::cos(2 * constants::pi * wrap(j) / nx) * (n + 1) + 0.25 * wrap(k);
}

MultiFab makeFilled(int nx, int max_size, int ncomp, int ngrow, int nranks = 4) {
    BoxArray ba(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba.maxSize(max_size);
    DistributionMapping dm(ba, nranks);
    MultiFab mf(ba, dm, ncomp, ngrow);
    mf.setVal(-1.0e30); // poison ghosts
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.array(static_cast<int>(b));
        const Box& vb = mf.box(static_cast<int>(b));
        for (int n = 0; n < ncomp; ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        a(i, j, k, n) = f(i, j, k, n, nx);
    }
    return mf;
}

} // namespace

TEST(MultiFab, DefineAllocatesGrownBoxes) {
    BoxArray ba(Box({0, 0, 0}, {31, 31, 31}));
    ba.maxSize(16);
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, 3, 2);
    EXPECT_EQ(mf.size(), 8u);
    EXPECT_EQ(mf.nComp(), 3);
    EXPECT_EQ(mf.nGrow(), 2);
    EXPECT_EQ(mf.fabbox(0), grow(ba[0], 2));
    EXPECT_EQ(mf.fab(0).box(), grow(ba[0], 2));
}

TEST(MultiFab, FillBoundaryInteriorGhosts) {
    const int nx = 16, ng = 2, nc = 2;
    MultiFab mf = makeFilled(nx, 8, nc, ng);
    mf.FillBoundary(); // non-periodic: only interior ghosts fill
    const Box domain({0, 0, 0}, {nx - 1, nx - 1, nx - 1});
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.const_array(static_cast<int>(b));
        const Box gb = mf.fabbox(static_cast<int>(b));
        for (int n = 0; n < nc; ++n)
            for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
                for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                    for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i) {
                        if (domain.contains(i, j, k)) {
                            ASSERT_DOUBLE_EQ(a(i, j, k, n), f(i, j, k, n, nx))
                                << i << ' ' << j << ' ' << k;
                        } else {
                            // outside the domain: still poisoned
                            ASSERT_LT(a(i, j, k, n), -1.0e29);
                        }
                    }
    }
}

TEST(MultiFab, FillBoundaryPeriodicWrapsAllGhosts) {
    const int nx = 16, ng = 2, nc = 1;
    MultiFab mf = makeFilled(nx, 8, nc, ng);
    Periodicity per(IntVect{nx, nx, nx});
    mf.FillBoundary(0, mf.nComp(), per);
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.const_array(static_cast<int>(b));
        const Box gb = mf.fabbox(static_cast<int>(b));
        for (int k = gb.smallEnd(2); k <= gb.bigEnd(2); ++k)
            for (int j = gb.smallEnd(1); j <= gb.bigEnd(1); ++j)
                for (int i = gb.smallEnd(0); i <= gb.bigEnd(0); ++i) {
                    ASSERT_DOUBLE_EQ(a(i, j, k, 0), f(i, j, k, 0, nx))
                        << i << ' ' << j << ' ' << k;
                }
    }
}

TEST(MultiFab, FillBoundaryReportsOffRankMessages) {
    const int nx = 16;
    MultiFab mf = makeFilled(nx, 8, 1, 1, /*nranks=*/8); // one box per rank
    std::int64_t bytes = 0;
    int msgs = 0;
    EventSubscription sub =
        events::subscribe<MessageRecord>([&](const MessageRecord& r) {
            ++msgs;
            bytes += r.bytes;
            EXPECT_NE(r.src_rank, r.dst_rank);
            EXPECT_STREQ(r.tag, "fillboundary");
        });
    mf.FillBoundary();
    sub.reset();
    // 8 boxes in a 2x2x2 arrangement: every pair of distinct boxes
    // touches (face, edge, or corner) and each box has 7 neighbors.
    EXPECT_EQ(msgs, 8 * 7);
    // Face messages dominate: each of 24 ordered face pairs moves 8*8*1
    // zones; 24 edge pairs move 8; 8 corner pairs... total below.
    const std::int64_t expect_zones = 24 * 64 + 24 * 8 + 8 * 1;
    EXPECT_EQ(bytes, expect_zones * static_cast<std::int64_t>(sizeof(Real)));
}

TEST(MultiFab, ParallelCopyAcrossDifferentBoxArrays) {
    const int nx = 16;
    MultiFab src = makeFilled(nx, 8, 1, 0);
    BoxArray ba2(Box({0, 0, 0}, {nx - 1, nx - 1, nx - 1}));
    ba2.maxSize(4); // different decomposition
    DistributionMapping dm2(ba2, 3);
    MultiFab dst(ba2, dm2, 1, 1);
    dst.setVal(0.0);
    dst.ParallelCopy(src, 0, 0, 1, 0);
    for (std::size_t b = 0; b < dst.size(); ++b) {
        auto a = dst.const_array(static_cast<int>(b));
        const Box& vb = dst.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                    ASSERT_DOUBLE_EQ(a(i, j, k, 0), f(i, j, k, 0, nx));
    }
}

TEST(MultiFab, ReductionsMatchSingleFabEquivalent) {
    const int nx = 8;
    MultiFab mf = makeFilled(nx, 4, 1, 0);
    MultiFab one = makeFilled(nx, 8, 1, 0); // single box
    EXPECT_NEAR(mf.sum(0), one.sum(0), 1e-10);
    EXPECT_DOUBLE_EQ(mf.max(0), one.max(0));
    EXPECT_DOUBLE_EQ(mf.min(0), one.min(0));
    EXPECT_DOUBLE_EQ(mf.norminf(0), one.norminf(0));
    EXPECT_NEAR(mf.norm2(0), one.norm2(0), 1e-10);
}

TEST(MultiFab, ArithmeticHelpers) {
    BoxArray ba(Box({0, 0, 0}, {7, 7, 7}));
    ba.maxSize(4);
    DistributionMapping dm(ba, 2);
    MultiFab a(ba, dm, 1, 0), b(ba, dm, 1, 0), c(ba, dm, 1, 0);
    a.setVal(2.0);
    b.setVal(3.0);
    c.setVal(0.0);
    MultiFab::LinComb(c, 2.0, a, -1.0, b, 0, 1); // 2*2 - 3 = 1
    EXPECT_DOUBLE_EQ(c.min(0), 1.0);
    EXPECT_DOUBLE_EQ(c.max(0), 1.0);
    c.saxpy(3.0, a, 0, 0, 1); // 1 + 6 = 7
    EXPECT_DOUBLE_EQ(c.sum(0), 7.0 * 512);
    c.plus(1.0, 0, 1);
    c.mult(0.5, 0, 1);
    EXPECT_DOUBLE_EQ(c.max(0), 4.0);
}

TEST(MultiFab, EmptyMinMaxAreReductionIdentities) {
    // Regression: min()/max() used to start from +/-1e300 sentinels, so an
    // empty MultiFab reduced to a large-but-finite garbage value that could
    // silently win a fold against real data. The identities are +/-inf.
    MultiFab empty;
    const Real inf = std::numeric_limits<Real>::infinity();
    EXPECT_EQ(empty.min(0), inf);
    EXPECT_EQ(empty.max(0), -inf);
    EXPECT_EQ(empty.sum(0), 0.0);
    EXPECT_EQ(empty.norminf(0), 0.0);
    // Folding an empty MultiFab into a populated reduction is a no-op.
    MultiFab mf = makeFilled(8, 8, 1, 0);
    EXPECT_EQ(std::max(mf.max(0), empty.max(0)), mf.max(0));
    EXPECT_EQ(std::min(mf.min(0), empty.min(0)), mf.min(0));
}
