#include "comm/halo_pattern.hpp"
#include "comm/ledger.hpp"
#include "comm/network.hpp"
#include "mesh/multifab.hpp"

#include <gtest/gtest.h>

using namespace exa;

TEST(RankLayout, NodeMapping) {
    RankLayout l{4, 6};
    EXPECT_EQ(l.numRanks(), 24);
    EXPECT_EQ(l.nodeOf(0), 0);
    EXPECT_EQ(l.nodeOf(5), 0);
    EXPECT_EQ(l.nodeOf(6), 1);
    EXPECT_TRUE(l.sameNode(0, 5));
    EXPECT_FALSE(l.sameNode(5, 6));
}

TEST(NetworkModel, OnNodeCheaperThanOffNode) {
    NetworkModel net;
    EXPECT_LT(net.p2pTime(1 << 20, true, 64), net.p2pTime(1 << 20, false, 64));
}

TEST(NetworkModel, LatencyGrowsWithScale) {
    NetworkModel net;
    EXPECT_LT(net.p2pTime(8, false, 1), net.p2pTime(8, false, 512));
    EXPECT_GT(net.hopFactor(512), net.hopFactor(8));
    EXPECT_DOUBLE_EQ(net.hopFactor(1), 1.0);
}

TEST(NetworkModel, BandwidthTermDominatesLargeMessages) {
    NetworkModel net;
    const double t_small = net.p2pTime(8, false, 8);
    const double t_big = net.p2pTime(100 << 20, false, 8);
    EXPECT_GT(t_big, 100 * t_small);
    // Large-message time approximately linear in bytes.
    EXPECT_NEAR(net.p2pTime(200 << 20, false, 8) / t_big, 2.0, 0.05);
}

TEST(NetworkModel, AllreduceScalesLogarithmically) {
    NetworkModel net;
    const double t8 = net.allreduceTime(8, 48, 8);
    const double t512 = net.allreduceTime(8, 3072, 512);
    EXPECT_GT(t512, t8);
    // log2(3072)/log2(48) ~ 2.07, plus congestion: well under 10x.
    EXPECT_LT(t512, 10 * t8);
    EXPECT_DOUBLE_EQ(net.allreduceTime(8, 1, 1), 0.0);
}

TEST(CommLedger, AggregatesMessages) {
    CommLedger ledger;
    ledger.record({0, 1, 1000, "fillboundary"});
    ledger.record({0, 1, 500, "fillboundary"});
    ledger.record({2, 3, 200, "parallelcopy"});
    EXPECT_EQ(ledger.totalBytes(), 1700);
    EXPECT_EQ(ledger.totalMessages(), 3);
    EXPECT_EQ(ledger.bytesWithTag("fillboundary"), 1500);
    EXPECT_EQ(ledger.bytesWithTag("parallelcopy"), 200);
    RankLayout l{2, 2}; // ranks 0,1 node 0; 2,3 node 1
    EXPECT_EQ(ledger.offNodeBytes(l), 0);
    ledger.record({0, 3, 400, "fillboundary"});
    EXPECT_EQ(ledger.offNodeBytes(l), 400);
    ledger.reset();
    EXPECT_EQ(ledger.totalBytes(), 0);
}

TEST(CommLedger, AttachCapturesFillBoundaryTraffic) {
    BoxArray ba(Box({0, 0, 0}, {15, 15, 15}));
    ba.maxSize(8);
    DistributionMapping dm(ba, 8);
    MultiFab mf(ba, dm, 2, 1);
    mf.setVal(1.0);
    CommLedger ledger;
    ledger.attach();
    mf.FillBoundary();
    ledger.detach();
    EXPECT_GT(ledger.totalMessages(), 0);
    // 2x2x2 boxes, ng=1, nc=2: zones = 24*64 + 24*8 + 8 (from mesh test).
    EXPECT_EQ(ledger.totalBytes(), (24 * 64 + 24 * 8 + 8) * 2 * 8);
}

namespace {
// 2x2x2 boxes of 8^3 on 8 ranks: every FillBoundary sends 56 messages.
MultiFab eightRankFab() {
    BoxArray ba(Box({0, 0, 0}, {15, 15, 15}));
    ba.maxSize(8);
    MultiFab mf(ba, DistributionMapping(ba, 8), 1, 1);
    mf.setVal(1.0);
    return mf;
}
} // namespace

// An attached ledger keeps counting while another message listener (the
// rebalance test's slow-network sleep) comes and goes.
TEST(CommLedger, KeepsCountingAcrossAnotherListener) {
    MultiFab mf = eightRankFab();
    CommLedger ledger;
    ledger.attach();
    mf.FillBoundary();
    const std::int64_t per = ledger.totalMessages();
    ASSERT_EQ(per, 8 * 7);
    {
        std::int64_t seen = 0;
        EventSubscription other = events::subscribe<MessageRecord>(
            [&](const MessageRecord&) { ++seen; });
        mf.FillBoundary();
        EXPECT_EQ(seen, per);
    }
    mf.FillBoundary();
    ledger.detach();
    EXPECT_EQ(ledger.totalMessages(), 3 * per);
}

// attach() on an attached ledger records each message once (the ensemble
// runner attaches a ledger its caller may already have attached), and
// detach() on a detached ledger does nothing.
TEST(CommLedger, AttachAndDetachAreIdempotent) {
    MultiFab mf = eightRankFab();
    CommLedger ledger;
    ledger.attach();
    ledger.attach();
    mf.FillBoundary();
    EXPECT_EQ(ledger.totalMessages(), 8 * 7);
    ledger.detach();
    ledger.detach();
    mf.FillBoundary();
    EXPECT_EQ(ledger.totalMessages(), 8 * 7);
    EXPECT_FALSE(events::active());
}

TEST(CommLedger, PhaseTimeIsMaxOverRanks) {
    CommLedger ledger;
    NetworkModel net;
    RankLayout l{2, 1};
    ledger.record({0, 1, 1 << 20, "x"});
    const double t1 = ledger.phaseTime(l, net);
    EXPECT_NEAR(t1, net.p2pTime(1 << 20, false, 2), 1e-12);
    // A second, disjoint pair on the same nodes doesn't extend the phase
    // (runs concurrently)...
    RankLayout l4{4, 1};
    CommLedger two;
    two.record({0, 1, 1 << 20, "x"});
    two.record({2, 3, 1 << 20, "x"});
    EXPECT_NEAR(two.phaseTime(l4, net), net.p2pTime(1 << 20, false, 4), 1e-12);
    // ...but a second message from the same src serializes.
    CommLedger ser;
    ser.record({0, 1, 1 << 20, "x"});
    ser.record({0, 2, 1 << 20, "x"});
    EXPECT_NEAR(ser.phaseTime(l4, net), 2 * net.p2pTime(1 << 20, false, 4), 1e-12);
}

TEST(HaloPattern, MatchesRealFillBoundaryTraffic) {
    // The analytic pattern must reproduce the mesh layer's actual off-rank
    // traffic for a matching decomposition (periodic, SFC ranks).
    RegularDecomposition d;
    d.nbx = d.nby = d.nbz = 4;
    d.bx = d.by = d.bz = 8;
    d.ngrow = 2;
    d.ncomp = 3;
    d.periodic = true;

    CommLedger analytic;
    buildHaloPattern(d, 16, analytic);

    BoxArray ba = makeBoxArray(d);
    DistributionMapping dm(ba, 16, DistributionMapping::Strategy::Sfc);
    MultiFab mf(ba, dm, d.ncomp, d.ngrow);
    mf.setVal(0.0);
    CommLedger real;
    real.attach();
    mf.FillBoundary(0, mf.nComp(), Periodicity(IntVect{32, 32, 32}));
    real.detach();

    EXPECT_EQ(analytic.totalBytes(), real.totalBytes());
}

TEST(HaloPattern, NonPeriodicHasLessTraffic) {
    RegularDecomposition d;
    d.nbx = d.nby = d.nbz = 4;
    d.bx = d.by = d.bz = 8;
    d.ngrow = 1;
    CommLedger per, nonper;
    buildHaloPattern(d, 64, per);
    d.periodic = false;
    buildHaloPattern(d, 64, nonper);
    EXPECT_LT(nonper.totalBytes(), per.totalBytes());
}

TEST(HaloPattern, SurfaceScalesWithBoxCount) {
    // Doubling the box grid per dim multiplies off-rank surface ~8x when
    // every box is its own rank (all halos off-rank).
    RegularDecomposition d;
    d.nbx = d.nby = d.nbz = 2;
    d.bx = d.by = d.bz = 16;
    d.ngrow = 2;
    CommLedger small;
    buildHaloPattern(d, 8, small);
    d.nbx = d.nby = d.nbz = 4;
    CommLedger big;
    buildHaloPattern(d, 64, big);
    EXPECT_NEAR(static_cast<double>(big.totalBytes()) / small.totalBytes(), 8.0, 0.01);
}
