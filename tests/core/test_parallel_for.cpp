#include "core/arena.hpp"
#include "core/array4.hpp"
#include "core/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(EXA_USE_OPENMP)
#include <omp.h>
#endif

using namespace exa;

namespace {

std::vector<Real> run_fill(Backend be) {
    ScopedBackend sb(be);
    Box b({0, 0, 0}, {7, 7, 7});
    std::vector<Real> data(b.numPts(), 0.0);
    Array4<Real> a(data.data(), b, 1);
    ParallelFor(b, [=](int i, int j, int k) {
        a(i, j, k) = std::sin(0.1 * i) + std::cos(0.2 * j) * k;
    });
    return data;
}

} // namespace

TEST(ParallelFor, BackendsBitIdentical) {
    auto serial = run_fill(Backend::Serial);
    auto omp = run_fill(Backend::OpenMP);
    auto gpu = run_fill(Backend::SimGpu);
    auto dbg = run_fill(Backend::Debug);
    EXPECT_EQ(serial, omp);
    EXPECT_EQ(serial, gpu);
    EXPECT_EQ(serial, dbg);
}

TEST(ParallelFor, VisitsEveryZoneExactlyOnce) {
    // Arena-backed so the count survives Backend::Debug's replay passes
    // (the checker snapshots and restores arena-resident state only).
    Box b({-2, 0, 3}, {4, 5, 6});
    int* count = static_cast<int*>(The_Arena()->allocate(sizeof(int) * b.numPts()));
    std::fill(count, count + b.numPts(), 0);
    Array4<int> a(count, b, 1);
    ParallelFor(b, [=](int i, int j, int k) { a(i, j, k) += 1; });
    for (std::int64_t idx = 0; idx < b.numPts(); ++idx) EXPECT_EQ(count[idx], 1);
    The_Arena()->deallocate(count);
}

TEST(ParallelFor, ComponentVariantCoversAllComponents) {
    Box b({0, 0, 0}, {3, 3, 3});
    const int nc = 5;
    std::vector<int> data(b.numPts() * nc, 0);
    Array4<int> a(data.data(), b, nc);
    ParallelFor(b, nc, [=](int i, int j, int k, int n) { a(i, j, k, n) = n + 1; });
    for (int n = 0; n < nc; ++n) {
        for (int idx = 0; idx < b.numPts(); ++idx) {
            EXPECT_EQ(data[n * b.numPts() + idx], n + 1);
        }
    }
}

TEST(ParallelFor, EmptyBoxDoesNothing) {
    Box e;
    bool touched = false;
    ParallelFor(e, [&](int, int, int) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, OneDimensional) {
    std::vector<int> v(100, 0);
    int* p = v.data();
    ParallelFor(static_cast<std::int64_t>(v.size()),
                [=](std::int64_t i) { p[i] = static_cast<int>(2 * i); });
    EXPECT_EQ(v[99], 198);
    EXPECT_EQ(v[0], 0);
}

TEST(ParallelReduce, SumMatchesAnalytic) {
    Box b({0, 0, 0}, {9, 9, 9});
    // sum over i of i for each (j,k): 45 * 100
    Real s = ParallelReduceSum(b, [](int i, int, int) { return static_cast<Real>(i); });
    EXPECT_DOUBLE_EQ(s, 45.0 * 100.0);
}

TEST(ParallelReduce, MaxMin) {
    Box b({0, 0, 0}, {4, 4, 4});
    Real mx = ParallelReduceMax(b, [](int i, int j, int k) {
        return static_cast<Real>(i + 10 * j + 100 * k);
    });
    EXPECT_DOUBLE_EQ(mx, 444.0);
    Real mn = ParallelReduceMin(b, [](int i, int j, int k) {
        return static_cast<Real>(i + 10 * j + 100 * k);
    });
    EXPECT_DOUBLE_EQ(mn, 0.0);
}

TEST(ParallelFor, SimGpuLaunchHookReceivesRecords) {
    ScopedBackend sb(Backend::SimGpu);
    std::vector<LaunchRecord> records;
    ExecConfig::setLaunchHook([&](const LaunchRecord& r) { records.push_back(r); });

    Box b({0, 0, 0}, {15, 15, 15});
    KernelInfo ki{"test_kernel", 10.0, 40.0, 80, 1.0};
    ParallelFor(ki, b, [](int, int, int) {});
    ParallelFor(ki, b, 4, [](int, int, int, int) {});

    ExecConfig::clearLaunchHook();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].zones, 4096);
    EXPECT_EQ(records[0].ncomp, 1);
    EXPECT_EQ(records[1].ncomp, 4);
    EXPECT_STREQ(records[0].info.name, "test_kernel");
    EXPECT_EQ(records[0].info.regs_per_thread, 80);
}

TEST(ParallelFor, SerialBackendDoesNotNotifyHook) {
    ScopedBackend sb(Backend::Serial);
    int launches = 0;
    ExecConfig::setLaunchHook([&](const LaunchRecord&) { ++launches; });
    Box b({0, 0, 0}, {3, 3, 3});
    ParallelFor(b, [](int, int, int) {});
    ExecConfig::clearLaunchHook();
    EXPECT_EQ(launches, 0);
}

TEST(ExecConfig, StreamsRoundTrip) {
    ExecConfig::setNumStreams(4);
    EXPECT_EQ(ExecConfig::numStreams(), 4);
    ExecConfig::setCurrentStream(3);
    EXPECT_EQ(ExecConfig::currentStream(), 3);
    ExecConfig::setCurrentStream(0);
    ExecConfig::setNumStreams(0); // clamps to 1
    EXPECT_EQ(ExecConfig::numStreams(), 1);
    ExecConfig::setNumStreams(4);
}

class ParallelForBoxShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelForBoxShapes, ReduceCountEqualsNumPts) {
    auto [nx, ny, nz] = GetParam();
    Box b({0, 0, 0}, {nx - 1, ny - 1, nz - 1});
    Real n = ParallelReduceSum(b, [](int, int, int) { return 1.0; });
    EXPECT_DOUBLE_EQ(n, static_cast<Real>(b.numPts()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelForBoxShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{8, 1, 1},
                                           std::tuple{1, 8, 1}, std::tuple{1, 1, 8},
                                           std::tuple{16, 8, 4}, std::tuple{3, 5, 7}));

// --- OpenMP launch policy -------------------------------------------------
//
// Under Backend::OpenMP a launch forks a thread team only when its modeled
// work (zones x ncomp x flops_per_zone) reaches kOmpForkFlops; smaller
// launches, and every sum, run the Serial loop. Either way the results
// must be Serial's bits, whatever the thread count.

namespace {

const KernelInfo kPolicyKernel{"policy_test", 10.0, 80.0, 64, 1.0};

// A cube of edge n, and whether launches over it fork under kPolicyKernel.
Box cube(int n) { return Box({0, 0, 0}, {n - 1, n - 1, n - 1}); }
bool forksOver(const Box& b, int ncomp = 1) {
    return static_cast<double>(b.numPts()) * ncomp * kPolicyKernel.flops_per_zone >=
           kOmpForkFlops;
}

// Runs every launch form over `b` on backend `be` and returns all outputs
// (the filled arrays followed by the reduction results).
std::vector<Real> runAllForms(Backend be, const Box& b) {
    ScopedBackend sb(be);
    const int nc = 3;
    const std::int64_t npts = b.numPts();
    std::vector<Real> out(static_cast<std::size_t>(npts * (1 + nc + 1)), 0.0);
    Array4<Real> one(out.data(), b, 1);
    Array4<Real> many(out.data() + npts, b, nc);
    Real* flat = out.data() + npts * (1 + nc);
    auto field = [](int i, int j, int k) {
        return std::sin(0.1 * i) + std::cos(0.2 * j) * k + 1.0e-3 * i * j;
    };
    ParallelFor(kPolicyKernel, b, [=](int i, int j, int k) { one(i, j, k) = field(i, j, k); });
    ParallelFor(kPolicyKernel, b, nc, [=](int i, int j, int k, int n) {
        many(i, j, k, n) = field(i, j, k) * (n + 1);
    });
    ParallelFor(kPolicyKernel, npts, [=](std::int64_t m) {
        flat[m] = std::exp(-1.0e-3 * static_cast<Real>(m));
    });
    out.push_back(ParallelReduceSum(kPolicyKernel, b, field));
    out.push_back(ParallelReduceMax(kPolicyKernel, b, field));
    out.push_back(ParallelReduceMin(b, field));
    return out;
}

// Runs `body` at each of 1, 2 and 4 OpenMP threads (once without OpenMP),
// restoring the thread count afterwards.
template <typename Body>
void atThreadCounts(Body&& body) {
#if defined(EXA_USE_OPENMP)
    const int saved = omp_get_max_threads();
    for (int t : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << t << " OpenMP threads");
        omp_set_num_threads(t);
        body();
    }
    omp_set_num_threads(saved);
#else
    body();
#endif
}

} // namespace

TEST(ParallelFor, OpenMpMatchesSerialBelowAndAboveForkThreshold) {
    const Box small = cube(4);
    const Box large = cube(24);
    ASSERT_FALSE(forksOver(small, 3));
    ASSERT_TRUE(forksOver(large));
    for (const Box& b : {small, large}) {
        SCOPED_TRACE(::testing::Message() << b.numPts() << " zones");
        const auto serial = runAllForms(Backend::Serial, b);
        atThreadCounts([&] { EXPECT_EQ(runAllForms(Backend::OpenMP, b), serial); });
    }
}

TEST(ParallelFor, OpenMpForksOnlyAboveThreshold) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    if (omp_get_max_threads() < 2) GTEST_SKIP() << "only one OpenMP thread available";
    ScopedBackend sb(Backend::OpenMP);
    // Each zone records whether it ran inside a parallel region.
    auto inTeam = [](const Box& b, int ncomp) {
        std::vector<int> flag(static_cast<std::size_t>(b.numPts() * ncomp), -1);
        Array4<int> a(flag.data(), b, ncomp);
        ParallelFor(kPolicyKernel, b, ncomp,
                    [=](int i, int j, int k, int n) { a(i, j, k, n) = omp_in_parallel(); });
        return flag;
    };
    const Box small = cube(4);
    const Box large = cube(24);
    const auto below = inTeam(small, 1);
    EXPECT_TRUE(std::all_of(below.begin(), below.end(), [](int v) { return v == 0; }));
    const auto above = inTeam(large, 1);
    EXPECT_TRUE(std::all_of(above.begin(), above.end(), [](int v) { return v == 1; }));
    // ncomp scales the modeled work: 8 components of the small box fork.
    ASSERT_TRUE(forksOver(small, 8));
    const auto wide = inTeam(small, 8);
    EXPECT_TRUE(std::all_of(wide.begin(), wide.end(), [](int v) { return v == 1; }));

    // 1-D launches follow the same rule.
    std::vector<int> flat(static_cast<std::size_t>(large.numPts()), -1);
    int* fp = flat.data();
    ParallelFor(kPolicyKernel, 64, [=](std::int64_t m) { fp[m] = omp_in_parallel(); });
    EXPECT_EQ(flat[0], 0);
    ParallelFor(kPolicyKernel, large.numPts(),
                [=](std::int64_t m) { fp[m] = omp_in_parallel(); });
    EXPECT_TRUE(std::all_of(flat.begin(), flat.end(), [](int v) { return v == 1; }));

    // Sums never fork, however large the box.
    std::vector<int> summed(static_cast<std::size_t>(large.numPts()), -1);
    Array4<int> sa(summed.data(), large, 1);
    ParallelReduceSum(kPolicyKernel, large, [=](int i, int j, int k) {
        sa(i, j, k) = omp_in_parallel();
        return 1.0;
    });
    EXPECT_TRUE(std::all_of(summed.begin(), summed.end(), [](int v) { return v == 0; }));
#endif
}

TEST(ParallelFor, OpenMpRunsInlineInsideParallelRegionAndOnOneThread) {
#if !defined(EXA_USE_OPENMP)
    GTEST_SKIP() << "built without OpenMP";
#else
    ScopedBackend sb(Backend::OpenMP);
    const Box large = cube(24);
    ASSERT_TRUE(forksOver(large));
    // Each zone records the nesting level it ran at: a launch that forked
    // would run one level deeper than its caller.
    auto levels = [&] {
        std::vector<int> lev(static_cast<std::size_t>(large.numPts()), -1);
        Array4<int> a(lev.data(), large, 1);
        ParallelFor(kPolicyKernel, large, [=](int i, int j, int k) { a(i, j, k) = omp_get_level(); });
        return lev;
    };
    auto allEqual = [](const std::vector<int>& v, int x) {
        return std::all_of(v.begin(), v.end(), [x](int e) { return e == x; });
    };

    std::vector<int> nested;
#pragma omp parallel num_threads(2)
    {
#pragma omp single
        nested = levels();
    }
    EXPECT_TRUE(allEqual(nested, 1));

    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    const auto single = levels();
    omp_set_num_threads(saved);
    EXPECT_TRUE(allEqual(single, 0));
#endif
}

TEST(ParallelReduce, OpenMpSumKeepsSerialOrderFarAboveThreshold) {
    // 1e16 + 1 rounds back to 1e16, so in Serial order every 1 after the
    // leading 1e16 is absorbed and the trailing -1e16 cancels it: the sum
    // is exactly 0. Any thread partition that starts a partial sum after
    // the first zone keeps its 1s and lands near the number of zones the
    // other threads summed. The box is ~10x above the fork threshold.
    const Box b({0, 0, 0}, {63, 63, 63});
    ASSERT_GE(static_cast<double>(b.numPts()) * kPolicyKernel.flops_per_zone,
              10.0 * kOmpForkFlops);
    auto pattern = [](int i, int j, int k) {
        if (i == 0 && j == 0 && k == 0) return 1.0e16;
        if (i == 63 && j == 63 && k == 63) return -1.0e16;
        return 1.0;
    };
    Real serial = 0.0;
    {
        ScopedBackend sb(Backend::Serial);
        serial = ParallelReduceSum(kPolicyKernel, b, pattern);
    }
    EXPECT_EQ(serial, 0.0);
    atThreadCounts([&] {
        ScopedBackend sb(Backend::OpenMP);
        const Real omp = ParallelReduceSum(kPolicyKernel, b, pattern);
        EXPECT_EQ(std::memcmp(&omp, &serial, sizeof(Real)), 0) << omp << " vs " << serial;
    });
}
