#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "mesh/plotfile.hpp"
#include "perf/device_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace exa;

namespace {

MultiFab makeState(int n, int nc, int seed) {
    BoxArray ba(Box({0, 0, 0}, {n - 1, n - 1, n - 1}));
    ba.maxSize(n / 2);
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, nc, 2);
    mf.setVal(-7.0); // ghosts get a sentinel: they must not be persisted
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.array(static_cast<int>(b));
        ParallelFor(mf.box(static_cast<int>(b)), nc, [=](int i, int j, int k, int c) {
            a(i, j, k, c) = seed + i + 10 * j + 100 * k + 1000 * c;
        });
    }
    return mf;
}

struct TmpDir {
    std::string path;
    // Per process: ctest runs a test's plain, debug-backend and
    // determinism entries concurrently.
    explicit TmpDir(const std::string& name)
        : path("/tmp/exastro_test_" + std::to_string(getpid()) + "_" + name) {
        std::filesystem::remove_all(path);
    }
    ~TmpDir() { std::filesystem::remove_all(path); }
};

} // namespace

TEST(Plotfile, RoundTripRestoresStateExactly) {
    TmpDir dir("roundtrip");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 3, 5);
    const auto bytes =
        writePlotfile(dir.path, mf, geom, {"rho", "T", "x"}, 1.25, 42);
    EXPECT_EQ(bytes, 8LL * 8 * 8 * 3 * 8);

    MultiFab back = makeState(8, 3, 0); // different data, same layout
    const auto rbytes = readPlotfileLevel(dir.path, 0, back);
    EXPECT_EQ(rbytes, bytes);
    for (std::size_t b = 0; b < mf.size(); ++b) {
        auto a = mf.const_array(static_cast<int>(b));
        auto c = back.const_array(static_cast<int>(b));
        const Box& vb = mf.box(static_cast<int>(b));
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                    for (int n = 0; n < 3; ++n)
                        ASSERT_EQ(a(i, j, k, n), c(i, j, k, n));
    }
}

TEST(Plotfile, HeaderRecordsMetadata) {
    TmpDir dir("header");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 2, 1);
    writePlotfile(dir.path, mf, geom, {"rho", "T"}, 3.5, 17);
    auto h = readPlotfileHeader(dir.path);
    EXPECT_EQ(h.nlevels, 1);
    EXPECT_EQ(h.ncomp, 2);
    EXPECT_DOUBLE_EQ(h.time, 3.5);
    EXPECT_EQ(h.step, 17);
    ASSERT_EQ(h.varnames.size(), 2u);
    EXPECT_EQ(h.varnames[0], "rho");
    ASSERT_EQ(h.boxes[0].size(), mf.size());
    EXPECT_EQ(h.boxes[0][0], mf.box(0));
}

TEST(Plotfile, MultiLevelWrite) {
    TmpDir dir("multilevel");
    Geometry g0(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    Geometry g1 = g0.refined(2);
    MultiFab l0 = makeState(8, 1, 2);
    MultiFab l1 = makeState(16, 1, 3);
    const auto bytes = writePlotfile(dir.path, {&l0, &l1}, {g0, g1}, {"rho"}, 0.0, 0);
    EXPECT_EQ(bytes, (8LL * 8 * 8 + 16LL * 16 * 16) * 8);
    auto h = readPlotfileHeader(dir.path);
    EXPECT_EQ(h.nlevels, 2);
    MultiFab back = makeState(16, 1, 9);
    readPlotfileLevel(dir.path, 1, back);
    EXPECT_DOUBLE_EQ(back.const_array(0)(1, 0, 0, 0), 3.0 + 1.0);
}

TEST(Plotfile, MismatchedRestartRejected) {
    TmpDir dir("mismatch");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 0);
    writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);
    MultiFab wrong = makeState(16, 1, 0);
    EXPECT_THROW(readPlotfileLevel(dir.path, 0, wrong), std::runtime_error);
    EXPECT_THROW(readPlotfileLevel(dir.path, 3, mf), std::runtime_error);
    EXPECT_THROW(readPlotfileHeader("/tmp/definitely_not_a_plotfile_xyz"),
                 std::runtime_error);
}

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void spit(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

// what() of the error a callable throws ("" if it does not throw).
template <typename F>
std::string thrownMessage(F&& f) {
    try {
        f();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(PlotfileIntegrity, FlippedPayloadBitRejectedNamingTheFab) {
    TmpDir dir("bitflip");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 2, 4);
    writePlotfile(dir.path, mf, geom, {"rho", "T"}, 1.0, 3);

    // Flip one bit of fab 2's payload, as bad disk would.
    const std::string victim = dir.path + "/Level_0/fab_2.bin";
    std::string payload = slurp(victim);
    ASSERT_FALSE(payload.empty());
    payload[payload.size() / 2] ^= 0x01;
    spit(victim, payload);

    MultiFab back = makeState(8, 2, 0);
    const std::string msg =
        thrownMessage([&] { readPlotfileLevel(dir.path, 0, back); });
    EXPECT_NE(msg.find("fab 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    // Headers (and the other fabs) are still intact.
    EXPECT_NO_THROW(readPlotfileHeader(dir.path));
}

TEST(PlotfileIntegrity, InjectedBitFlipCaughtOnRestart) {
    fault::disarmAll();
    TmpDir dir("faultflip");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 6);
    {
        fault::ScopedFault f(fault::Site::CheckpointBitFlip); // first fab only
        writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);
        EXPECT_EQ(fault::stats(fault::Site::CheckpointBitFlip).fires, 1);
    }
    MultiFab back = makeState(8, 1, 0);
    const std::string msg =
        thrownMessage([&] { readPlotfileLevel(dir.path, 0, back); });
    EXPECT_NE(msg.find("fab 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("corrupted payload"), std::string::npos) << msg;
}

TEST(PlotfileIntegrity, TamperedHeaderRejected) {
    TmpDir dir("hdrtamper");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 1);
    writePlotfile(dir.path, mf, geom, {"rho"}, 2.0, 9);

    std::string hdr = slurp(dir.path + "/Header");
    // Tamper with the recorded step count without updating headercrc.
    const auto pos = hdr.find(" 9\n");
    ASSERT_NE(pos, std::string::npos);
    hdr[pos + 1] = '7';
    spit(dir.path + "/Header", hdr);

    const std::string msg = thrownMessage([&] { readPlotfileHeader(dir.path); });
    EXPECT_NE(msg.find("header checksum mismatch"), std::string::npos) << msg;
}

TEST(PlotfileIntegrity, TruncatedHeaderRejected) {
    TmpDir dir("hdrtrunc");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 1);
    writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);

    // A crash mid-write would leave a v2 header without its headercrc
    // trailer; the atomic rename normally makes this impossible, so build
    // it by hand.
    std::string hdr = slurp(dir.path + "/Header");
    const auto tag = hdr.rfind("headercrc ");
    ASSERT_NE(tag, std::string::npos);
    spit(dir.path + "/Header", hdr.substr(0, tag));

    const std::string msg = thrownMessage([&] { readPlotfileHeader(dir.path); });
    EXPECT_NE(msg.find("headercrc"), std::string::npos) << msg;
}

TEST(PlotfileIntegrity, Version1HeaderRejectedAsBadMagic) {
    TmpDir dir("hdrv1");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 1);
    writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);

    // A version-1 header: the old magic and no headercrc trailer. Version
    // 1 carried no per-fab sizes or CRCs, so it must not be read at all.
    std::string hdr = slurp(dir.path + "/Header");
    const auto tag = hdr.rfind("headercrc ");
    ASSERT_NE(tag, std::string::npos);
    hdr = hdr.substr(0, tag);
    const std::string v2 = "ExaStroPlotfile-2";
    ASSERT_EQ(hdr.compare(0, v2.size(), v2), 0);
    hdr.replace(0, v2.size(), "ExaStroPlotfile-1");
    spit(dir.path + "/Header", hdr);

    const std::string msg = thrownMessage([&] { readPlotfileHeader(dir.path); });
    EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

TEST(PlotfileIntegrity, TruncatedFabPayloadRejected) {
    TmpDir dir("fabtrunc");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 1);
    writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);

    const std::string victim = dir.path + "/Level_0/fab_1.bin";
    const std::string payload = slurp(victim);
    spit(victim, payload.substr(0, payload.size() / 2));

    MultiFab back = makeState(8, 1, 0);
    const std::string msg =
        thrownMessage([&] { readPlotfileLevel(dir.path, 0, back); });
    EXPECT_NE(msg.find("fab 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("short read"), std::string::npos) << msg;
}

TEST(PlotfileIntegrity, SuccessfulWriteLeavesNoStagingDir) {
    TmpDir dir("atomic");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(8, 1, 1);
    writePlotfile(dir.path, mf, geom, {"rho"}, 0.0, 0);
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/Header"));
    EXPECT_FALSE(std::filesystem::exists(dir.path + ".tmp"));
}

TEST(PlotfileIntegrity, RewriteReplacesPreviousCheckpointAtomically) {
    TmpDir dir("rewrite");
    Geometry geom(Box({0, 0, 0}, {7, 7, 7}), {0, 0, 0}, {1, 1, 1});
    MultiFab a = makeState(8, 1, 1);
    MultiFab b = makeState(8, 1, 2);
    writePlotfile(dir.path, a, geom, {"rho"}, 0.0, 0);
    writePlotfile(dir.path, b, geom, {"rho"}, 1.0, 1);
    auto h = readPlotfileHeader(dir.path);
    EXPECT_EQ(h.step, 1);
    MultiFab back = makeState(8, 1, 0);
    readPlotfileLevel(dir.path, 0, back);
    EXPECT_DOUBLE_EQ(back.const_array(0)(1, 0, 0, 0), 2.0 + 1.0);
    EXPECT_FALSE(std::filesystem::exists(dir.path + ".tmp"));
}

TEST(Plotfile, CheckpointBytesPriceTheHostCopy) {
    // The paper: checkpoints copy device data to the host; the device
    // model prices that copy over NVLink.
    TmpDir dir("chk");
    Geometry geom(Box({0, 0, 0}, {15, 15, 15}), {0, 0, 0}, {1, 1, 1});
    MultiFab mf = makeState(16, 8, 0);
    const auto bytes = writePlotfile(dir.path, mf, geom,
                                     {"a", "b", "c", "d", "e", "f", "g", "h"}, 0.0,
                                     0);
    DeviceModel dev;
    const double t = dev.transferTime(static_cast<double>(bytes));
    EXPECT_GT(t, 0.0);
    EXPECT_NEAR(t, bytes / 45.0e9, 1e-12);
}
