// Self-tests for the Backend::Debug contract checker: a clean kernel must
// pass silently, a seeded racy kernel and a write-colliding kernel must be
// detected and reported by KernelInfo::name, and Debug results must stay
// bit-identical to Serial (including non-idempotent kernels, which the
// snapshot/restore machinery must not double-apply).

#include "core/arena.hpp"
#include "core/array4.hpp"
#include "core/debug.hpp"
#include "core/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace exa;

namespace {

// Arena-backed scratch: the checker snapshots arena-resident state only,
// so kernels under test must write through an Arena (exactly the
// "device-resident" requirement of a real GPU port).
class ArenaBuffer {
public:
    explicit ArenaBuffer(std::int64_t n)
        : m_n(n), m_p(static_cast<Real*>(The_Arena()->allocate(sizeof(Real) * n))) {
        std::fill(m_p, m_p + n, 0.0);
    }
    ~ArenaBuffer() { The_Arena()->deallocate(m_p); }
    Real* data() { return m_p; }

private:
    std::int64_t m_n;
    Real* m_p;
};

bool anyViolationFrom(const char* source, const char* kind) {
    for (const auto& v : debug::violations()) {
        if (v.source == source && v.kind == kind) return true;
    }
    return false;
}

} // namespace

TEST(DebugBackend, CleanKernelPassesSilently) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    Box b({0, 0, 0}, {7, 7, 7});
    ArenaBuffer buf(b.numPts());
    Array4<Real> a(buf.data(), b, 1);
    ParallelFor(KernelInfo{"clean_fill", 10.0, 8.0, 32, 1.0}, b,
                [=](int i, int j, int k) { a(i, j, k) = i + 10.0 * j + 100.0 * k; });

    EXPECT_EQ(debug::violationCount(), 0u);
    EXPECT_DOUBLE_EQ(a(3, 2, 1), 3 + 20.0 + 100.0); // forward result retained
}

TEST(DebugBackend, RacyKernelIsFlaggedByName) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    Box b({0, 0, 0}, {15, 3, 3});
    ArenaBuffer buf(b.numPts());
    Array4<Real> a(buf.data(), b, 1);
    // Deliberately racy: every zone (except the first in x) reads the
    // value its left neighbor writes in the same launch. Serial forward
    // order builds a prefix chain; any other order yields different data.
    ParallelFor(KernelInfo{"racy_stencil", 10.0, 16.0, 32, 1.0}, b,
                [=](int i, int j, int k) {
                    a(i, j, k) = (i > 0) ? a(i - 1, j, k) + 1.0 : 1.0;
                });

    EXPECT_GT(debug::violationCount(), 0u);
    EXPECT_TRUE(anyViolationFrom("racy_stencil", "order-dependence"));
    // The launch still completes with the Serial (forward-order) answer.
    EXPECT_DOUBLE_EQ(a(15, 0, 0), 16.0);
    debug::clearViolations();
}

TEST(DebugBackend, WriteCollisionIsFlaggedEvenWhenOrderIndependent) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    Box b({0, 0, 0}, {3, 3, 3});
    ArenaBuffer buf(b.numPts());
    Array4<Real> a(buf.data(), b, 1);
    // Every zone accumulates into one shared cell. Small exact-integer
    // adds commute bitwise, so forward/reversed/shuffled orders agree and
    // the order check stays silent — only the write-footprint pass can see
    // that 64 zones all touch the same address.
    ParallelFor(KernelInfo{"shared_accumulator", 5.0, 8.0, 32, 1.0}, b,
                [=](int, int, int) { a(0, 0, 0) += 1.0; });

    EXPECT_TRUE(anyViolationFrom("shared_accumulator", "write-collision"));
    EXPECT_FALSE(anyViolationFrom("shared_accumulator", "order-dependence"));
    debug::clearViolations();
}

TEST(DebugBackend, BitIdenticalToSerialIncludingNonIdempotentKernels) {
    debug::ScopedViolationTrap trap;
    debug::resetCheckCounts();

    Box b({0, 0, 0}, {7, 7, 7});
    auto run = [&](Backend be) {
        ScopedBackend sb(be);
        ArenaBuffer buf(b.numPts());
        Array4<Real> a(buf.data(), b, 1);
        ParallelFor(KernelInfo{"seed_fill", 10.0, 8.0, 32, 1.0}, b,
                    [=](int i, int j, int k) { a(i, j, k) = std::sin(0.1 * i * j + k); });
        // Non-idempotent: if Debug's replay passes leaked into the final
        // state, the increment would be applied 2-4 times.
        ParallelFor(KernelInfo{"increment", 5.0, 16.0, 32, 1.0}, b,
                    [=](int i, int j, int k) { a(i, j, k) += 1.5; });
        return std::vector<Real>(buf.data(), buf.data() + b.numPts());
    };

    const auto serial = run(Backend::Serial);
    const auto dbg = run(Backend::Debug);
    ASSERT_EQ(serial.size(), dbg.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(std::memcmp(&serial[i], &dbg[i], sizeof(Real)), 0) << "zone " << i;
    }
    EXPECT_EQ(debug::violationCount(), 0u);
}

TEST(DebugBackend, ComponentVariantIsCheckedPerComponent) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    Box b({0, 0, 0}, {3, 3, 3});
    const int nc = 3;
    ArenaBuffer buf(b.numPts() * nc);
    Array4<Real> a(buf.data(), b, nc);
    // Writes are keyed by (i,j,k) but not by n: components collide on
    // component 0 of their zone. (i,j,k,n) is the contract key, so this
    // must be flagged.
    ParallelFor(KernelInfo{"component_collider", 5.0, 8.0, 32, 1.0}, b, nc,
                [=](int i, int j, int k, int) { a(i, j, k, 0) += 1.0; });

    EXPECT_TRUE(anyViolationFrom("component_collider", "write-collision"));
    debug::clearViolations();
}

TEST(DebugBackend, ChecksAreRateLimitedPerKernelName) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    const int cap = debug::limits().checks_per_kernel;
    ASSERT_GT(cap, 0);
    Box b({0, 0, 0}, {7, 1, 1});
    ArenaBuffer buf(b.numPts());
    Array4<Real> a(buf.data(), b, 1);
    auto racy_launch = [&] {
        ParallelFor(KernelInfo{"rate_limited_racy", 5.0, 8.0, 32, 1.0}, b,
                    [=](int i, int j, int k) {
                        a(i, j, k) = (i > 0) ? a(i - 1, j, k) + 1.0 : 1.0;
                    });
    };
    for (int r = 0; r < cap; ++r) racy_launch();
    const auto after_cap = debug::violationCount();
    EXPECT_GT(after_cap, 0u);
    for (int r = 0; r < 3; ++r) racy_launch(); // quota exhausted: unchecked
    EXPECT_EQ(debug::violationCount(), after_cap);
    debug::clearViolations();
}

TEST(DebugBackend, OneDimensionalLaunchRunsExactlyOnce) {
    ScopedBackend sb(Backend::Debug);
    std::vector<int> v(64, 0);
    int* p = v.data();
    // 1-D launches are documented as unchecked single-pass under Debug;
    // a replay would double these host-side increments.
    ParallelFor(static_cast<std::int64_t>(v.size()), [=](std::int64_t i) { p[i] += 1; });
    for (int x : v) EXPECT_EQ(x, 1);
}

TEST(DebugBackend, BackendNamesRoundTrip) {
    EXPECT_EQ(backendFromName("debug"), Backend::Debug);
    EXPECT_EQ(backendFromName("serial"), Backend::Serial);
    EXPECT_EQ(backendFromName("openmp"), Backend::OpenMP);
    EXPECT_EQ(backendFromName("simgpu"), Backend::SimGpu);
    EXPECT_EQ(backendFromName(nullptr), Backend::Serial);
    EXPECT_EQ(backendFromName("nonsense"), Backend::Serial);
    EXPECT_STREQ(backendName(Backend::Debug), "debug");
}

TEST(ParallelReduce, EmptyBoxIdentities) {
    const Box empty;
    const Real inf = std::numeric_limits<Real>::infinity();
    EXPECT_EQ(ParallelReduceMax(empty, [](int, int, int) { return 42.0; }), -inf);
    EXPECT_EQ(ParallelReduceMin(empty, [](int, int, int) { return 42.0; }), inf);
    EXPECT_EQ(ParallelReduceSum(empty, [](int, int, int) { return 42.0; }), 0.0);
    // Folding an empty reduction into a non-empty one is a no-op.
    Box b({0, 0, 0}, {1, 1, 1});
    const Real mx = ParallelReduceMax(b, [](int, int, int) { return -5.0; });
    EXPECT_EQ(std::max(mx, ParallelReduceMax(empty, [](int, int, int) { return 0.0; })),
              -5.0);
}

TEST(DebugBackend, FusedTagsWritingOneZoneCollide) {
    debug::ScopedViolationTrap trap;
    debug::clearViolations();
    debug::resetCheckCounts();
    ScopedBackend sb(Backend::Debug);

    // Each tag alone is contract-clean; the two together write the same
    // zones of one array. The adds are exact, so every order agrees and
    // only the footprint pass across tags can see the collision.
    Box b({0, 0, 0}, {3, 3, 3});
    ArenaBuffer buf(b.numPts());
    Array4<Real> a(buf.data(), b, 1);
    ParallelFor(KernelInfo{"fused_collider", 5.0, 8.0, 32, 1.0}, 2, 1, [&](std::size_t) {
        return std::pair{b, [=](int i, int j, int k) { a(i, j, k) += 1.0; }};
    });

    EXPECT_TRUE(anyViolationFrom("fused_collider", "write-collision"));
    EXPECT_FALSE(anyViolationFrom("fused_collider", "order-dependence"));
    EXPECT_DOUBLE_EQ(a(2, 1, 3), 2.0); // forward result retained
    debug::clearViolations();
}
