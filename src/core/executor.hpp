#pragma once

namespace exa {

// Which implementation a ParallelFor launch runs on. This mirrors the
// paper's single-source design: the loop body (a lambda over (i,j,k)) is
// written once and the backend decides how index space maps onto hardware.
//
//   Serial : plain triply-nested loop (the "CPU build" of the paper).
//   OpenMP : each launch is one `omp parallel for` over the k*j rows of
//            its box, split statically across the team. A launch forks a
//            team only when its modeled work (zones x ncomp x
//            flops_per_zone) reaches kOmpForkFlops (core/parallel_for.hpp);
//            smaller launches run the Serial loop on the calling thread.
//            Sums keep Serial order, so results are bit-identical to
//            Serial for any OMP_NUM_THREADS.
//   SimGpu : per-zone threading semantics of Figure 1 (right). Results are
//            bit-identical to Serial; in addition every launch is published
//            as a LaunchRecord on the event stream (core/events.hpp),
//            where the device model charges modeled V100 time (launch
//            latency, occupancy, bandwidth).
//   Debug  : verification mode (core/debug.hpp). Each launch runs in
//            forward, reversed, and shuffled zone order against a snapshot
//            of all arena-resident state; order-dependent results and
//            same-address writes from different zones are reported as GPU
//            contract violations, naming the KernelInfo. Results remain
//            bit-identical to Serial.
enum class Backend { Serial, OpenMP, SimGpu, Debug };

const char* backendName(Backend b);
// Parse a backend name ("serial", "openmp", "simgpu", "debug"); unknown or
// null names yield Backend::Serial. The EXA_BACKEND environment variable
// is fed through this at startup to pick the initial backend.
Backend backendFromName(const char* name);

// Static per-kernel traits used by the simulated GPU device model to price
// a launch. They are the quantities the paper identifies as the real
// performance levers: arithmetic per zone, streamed bytes per zone
// (DRAM-bandwidth-bound kernels), and register pressure (occupancy and
// spilling; see the discussion of the 255-register Volta budget and
// N-isotope Jacobians).
struct KernelInfo {
    const char* name = "anonymous";
    double flops_per_zone = 50.0;
    double bytes_per_zone = 80.0;
    int regs_per_thread = 64;
    // Multiplier for data-dependent cost imbalance across zones (1 =
    // uniform). The burn driver sets this for igniting zones.
    double work_imbalance = 1.0;

    // `bytes` is per zone *and per component*: the device model multiplies
    // a launch's zone count by its ncomp, so callers that pass ncomp to
    // ParallelFor must not fold it into the byte count as well.
    static KernelInfo streaming(const char* nm, double bytes) {
        return KernelInfo{nm, bytes / 4.0, bytes, 48, 1.0};
    }
};

// Global execution configuration: the backend every ParallelFor launch
// runs on. Not thread-safe by design: the backend is chosen at startup
// (or per benchmark section), exactly like choosing the build/runtime
// configuration of the production codes.
class ExecConfig {
public:
    static Backend backend() { return s_backend; }
    static void setBackend(Backend b) { s_backend = b; }

    // True when the device model is accounting launches (drivers consult
    // this before assembling LaunchRecords for e.g. burn imbalance).
    static bool accountsLaunches() { return s_backend == Backend::SimGpu; }

private:
    static Backend s_backend;
};

// RAII helper: set a backend for a scope, restore on exit.
class ScopedBackend {
public:
    explicit ScopedBackend(Backend b) : m_saved(ExecConfig::backend()) {
        ExecConfig::setBackend(b);
    }
    ~ScopedBackend() { ExecConfig::setBackend(m_saved); }
    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

private:
    Backend m_saved;
};

} // namespace exa
