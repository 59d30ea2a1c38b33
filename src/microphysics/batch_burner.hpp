#pragma once

#include "microphysics/burner.hpp"

#include <cstdint>
#include <vector>

namespace exa {

// Stack capacity for per-zone species scratch in the batch kernels (the
// stiffness estimate, the grid driver's gather and scatter), so they run
// allocation-free and OpenMP-safely for every network in the suite.
inline constexpr int kMaxStackSpec = 63;

// Throws std::invalid_argument, naming `who` and the network, when `net`
// has more than kMaxStackSpec species: the burn engine's one width check.
void requireBurnableWidth(const ReactionNetwork& net, const char* who);

// A flat SoA workspace of gathered reacting zones — the device-resident
// burn buffer. Zones come from anywhere (the grid driver gathers across
// fabs); the batch knows nothing of boxes. Layout is struct-of-arrays
// with species-major mass fractions (X[n * nzones + z]), the coalesced
// layout a GPU batch kernel reads.
struct BurnBatch {
    int nspec = 0;
    std::int64_t nzones = 0;

    // Inputs (size nzones; X size nspec * nzones).
    std::vector<Real> rho;
    std::vector<Real> T;
    std::vector<Real> X;

    // Outputs (filled by burnBatch).
    std::vector<Real> T_out;
    std::vector<Real> X_out;   // species-major, like X
    std::vector<Real> e_nuc;
    std::vector<std::int64_t> steps;
    std::vector<char> success;

    void resize(int ns, std::int64_t nz) {
        nspec = ns;
        nzones = nz;
        rho.resize(nz);
        T.resize(nz);
        X.resize(static_cast<std::size_t>(ns) * nz);
        T_out.resize(nz);
        X_out.resize(static_cast<std::size_t>(ns) * nz);
        e_nuc.resize(nz);
        steps.resize(nz);
        success.resize(nz);
    }

    Real* Xin(int n) { return X.data() + static_cast<std::size_t>(n) * nzones; }
    const Real* Xin(int n) const {
        return X.data() + static_cast<std::size_t>(n) * nzones;
    }
    Real* Xout(int n) { return X_out.data() + static_cast<std::size_t>(n) * nzones; }
    const Real* Xout(int n) const {
        return X_out.data() + static_cast<std::size_t>(n) * nzones;
    }
};

struct BatchBurnOptions {
    // Target zones per device batch (one fused launch each). The engine
    // rounds the gathered count to a whole number of batches of roughly
    // this size, so no sliver batch trails. Small batches pay the device
    // model's launch-latency ramp; large batches mix stiffness classes.
    // 2048 is the measured sweet spot for WD-collision-like distributions
    // (see EXPERIMENTS.md E14).
    int batch_size = 2048;
    // Sort gathered zones by the stiffness estimate before batching, so
    // batch-mates converge in similar BDF iteration counts and no cheap
    // zone is priced at an igniting neighbor's warp-stall tail.
    bool sort_by_stiffness = true;
    // Route the stiff tail (estimate > tail_factor x median, and above
    // tail_min_stiffness absolutely) to the host path instead of any
    // device batch — the paper's Section VI hybrid split.
    bool hybrid_cpu_tail = false;
    double tail_factor = 32.0;
    // Absolute floor for the tail cut, in burning e-folds per dt. Past
    // ~1 e-fold a zone is running away within the step and its
    // integrated cost explodes nonlinearly, so ~2 marks the genuinely
    // extreme zones; the floor also keeps a uniformly quiescent grid
    // (tiny median) from tailing anything.
    double tail_min_stiffness = 2.0;
};

// What one burnBatch call did, for benches, tests, and the E14 ablation:
// how the gather split between device batches and the host tail.
struct BatchBurnReport {
    std::int64_t gathered = 0;
    std::int64_t device_zones = 0;
    std::int64_t tail_zones = 0;
    std::int64_t batches = 0;
    std::int64_t device_steps = 0;
    std::int64_t tail_steps = 0;
    double tail_seconds = 0.0;        // host wall time integrating the tail
    double stiffness_median = 0.0;    // of the gathered zones (dt / t_burn)
    double stiffness_max = 0.0;
    double stiffness_tail_cut = 0.0;  // threshold actually applied (0 = none)
};

// The batched burn engine: stiffness-estimate, sort, split, and integrate
// every zone of `b` over dt, filling its output arrays. Zones integrate
// one at a time through one BurnWorkspace, the device batches in sorted
// order and then the stiff host tail; each device batch is priced as one
// fused launch on the simulated device (named kernel, batch-local work
// imbalance). Per-zone arithmetic is identical to burnZone on every
// backend — processing order only changes *when* a zone is integrated,
// never its result — so batched output is bit-identical to a zone-by-zone
// burnZone loop. Deterministic (stable stiffness sort, serial zone loop),
// including the order fault-injection sites fire in. Throws
// std::invalid_argument for a network wider than kMaxStackSpec.
BatchBurnReport burnBatch(const ReactionNetwork& net, const Eos& eos,
                          const BatchBurnOptions& opt, BurnBatch& b, Real dt,
                          const OdeOptions& ode = OdeOptions{});

} // namespace exa
