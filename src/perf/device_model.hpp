#pragma once

#include "core/events.hpp"
#include "perf/summit.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace exa {

// The simulated V100: consumes LaunchRecords from the SimGpu backend and
// accumulates *modeled* execution time. The arithmetic of every kernel
// still runs on the host bit-identically to the serial backend; only the
// clock is simulated. The model captures the performance mechanisms the
// paper identifies:
//
//   * per-launch latency (small boxes are inefficient),
//   * a latency-hiding ramp (throughput saturates near ~100^3 zones),
//   * occupancy limited by register pressure, with spilling past 255
//     registers (the N-isotope Jacobian discussion),
//   * streaming-bandwidth- or FLOP-bound execution, whichever is slower,
//   * CUDA-streams overlap of launch latency,
//   * Unified-Memory oversubscription (eviction-bandwidth penalty).
//
// The streams assumption is a fixed rule: kernel bodies run one after
// another (they contend for the same SMs), and the launch latency of
// every launch overlaps across kStreams streams, whichever launch issued
// it. No launch carries a stream id; the model reads only the count.
class DeviceModel {
public:
    // Concurrent streams whose launch latencies overlap.
    static constexpr int kStreams = 4;

    explicit DeviceModel(const GpuParams& p = GpuParams{});
    DeviceModel(const DeviceModel&) = delete;
    DeviceModel& operator=(const DeviceModel&) = delete;

    // Subscribe to the event stream's LaunchRecords / drop the
    // subscription (Backend::SimGpu must also be selected for launches to
    // be published). Both are idempotent: attaching an attached model
    // counts each launch once, and detaching a detached one does nothing.
    // Other device models may be attached at the same time; each counts
    // every launch. The destructor detaches.
    void attach();
    void detach();

    // Modeled execution time of a single launch.
    double launchTime(const LaunchRecord& r) const;
    // Body-only time (no launch latency); used by the scaling model.
    double bodyTime(const KernelInfo& info, std::int64_t zones) const;

    void reset();

    // Modeled elapsed device time: every kernel body plus the launch
    // latencies divided over kStreams.
    double elapsedSeconds() const;
    // Total serialized kernel time (as if one stream).
    double serializedSeconds() const;

    std::int64_t numLaunches() const { return m_launches; }
    std::int64_t numZones() const { return m_zones; }

    // Per-kernel accounting (by KernelInfo::name). Kernels whose traits
    // vary per launch (the burn's steps/imbalance) are tracked as
    // launch-weighted averages in `info`.
    struct KernelStats {
        std::int64_t launches = 0;
        std::int64_t zones = 0;
        double seconds = 0.0;
        KernelInfo info;
        double flops_sum = 0.0, bytes_sum = 0.0, imb_sum = 0.0;
    };
    const std::map<std::string, KernelStats>& kernelStats() const { return m_stats; }

    // Device-resident data, for the oversubscription model. The paper's
    // codes keep all state resident; benches set this to the state size
    // per GPU.
    void setResidentBytes(double bytes) { m_resident_bytes = bytes; }
    double residentBytes() const { return m_resident_bytes; }
    bool oversubscribed() const { return m_resident_bytes > m_params.mem_capacity; }

    // Model a host<->device copy (checkpointing, non-CUDA-aware MPI).
    double transferTime(double bytes) const { return bytes / m_params.h2d_bw; }

    const GpuParams& params() const { return m_params; }

private:
    void onLaunch(const LaunchRecord& r);

    GpuParams m_params;
    double m_serialized = 0.0;
    std::int64_t m_launches = 0;
    std::int64_t m_zones = 0;
    double m_resident_bytes = 0.0;
    std::map<std::string, KernelStats> m_stats;
    // Last member, so it unsubscribes before the counters are destroyed.
    EventSubscription m_sub;
};

} // namespace exa
