#include "perf/device_model.hpp"

#include <algorithm>
#include <cmath>

namespace exa {

double GpuParams::occupancy(int regs_per_thread) const {
    const int regs = std::max(32, regs_per_thread);
    const int eff_regs = std::min(regs, max_regs_per_thread);
    const int threads = std::min(max_threads_per_sm, regs_per_sm / eff_regs);
    return static_cast<double>(threads) / max_threads_per_sm;
}

DeviceModel::DeviceModel(const GpuParams& p) : m_params(p) {}

void DeviceModel::attach() {
    if (m_sub) return;
    m_sub = events::subscribe<LaunchRecord>(
        [this](const LaunchRecord& r) { onLaunch(r); });
}

void DeviceModel::detach() { m_sub.reset(); }

void DeviceModel::reset() {
    m_serialized = 0.0;
    m_launches = 0;
    m_zones = 0;
    m_stats.clear();
}

double DeviceModel::bodyTime(const KernelInfo& info, std::int64_t zones) const {
    const double occ = m_params.occupancy(info.regs_per_thread);

    // Register spilling past the hardware cap turns registers into local
    // memory traffic (the paper's Volta 255-register discussion).
    double bytes_per_zone = info.bytes_per_zone;
    if (info.regs_per_thread > m_params.max_regs_per_thread) {
        bytes_per_zone += (info.regs_per_thread - m_params.max_regs_per_thread) *
                          m_params.spill_bytes_per_reg;
    }

    // Unified-Memory oversubscription: the spilled-over fraction of the
    // working set streams at eviction bandwidth instead of HBM bandwidth.
    double mem_bw = m_params.mem_bw;
    if (oversubscribed()) {
        const double f =
            (m_resident_bytes - m_params.mem_capacity) / m_resident_bytes;
        mem_bw = 1.0 / ((1.0 - f) / m_params.mem_bw + f / m_params.evict_bw);
    }

    const double mem_eff = std::min(1.0, occ / m_params.occ_mem_saturation);
    const double flop_eff = std::min(1.0, occ / m_params.occ_flop_saturation);
    const double t_mem = zones * bytes_per_zone / (mem_bw * mem_eff);
    const double t_flop = zones * info.flops_per_zone / (m_params.flops * flop_eff);

    // Latency-hiding ramp: below ~ramp_zones concurrent work items the
    // device cannot cover its own latencies; throughput ramps linearly.
    const double ramp =
        static_cast<double>(zones) / (zones + m_params.ramp_zones * occ);

    const double t_uniform = std::max(t_mem, t_flop) / std::max(ramp, 1e-12);

    // Data-dependent imbalance (work_imbalance = max/mean zone cost): the
    // most expensive zone runs at single-thread speed and the launch
    // cannot retire before it does — the warp-stall tail of Section VI's
    // igniting-zone discussion.
    if (info.work_imbalance > 1.0 && zones > 0) {
        const double mean_zone_flops = info.flops_per_zone;
        const double t_tail = info.work_imbalance * mean_zone_flops /
                              m_params.single_thread_flops;
        return std::max(t_uniform, t_tail);
    }
    return t_uniform;
}

double DeviceModel::launchTime(const LaunchRecord& r) const {
    const std::int64_t zones = r.zones * std::max(1, r.ncomp);
    return m_params.launch_latency + bodyTime(r.info, zones);
}

void DeviceModel::onLaunch(const LaunchRecord& r) {
    const double t = launchTime(r);
    m_serialized += t;
    ++m_launches;
    m_zones += r.zones * std::max(1, r.ncomp);
    auto& ks = m_stats[r.info.name];
    ks.launches += 1;
    ks.zones += r.zones * std::max(1, r.ncomp);
    ks.seconds += t;
    ks.flops_sum += r.info.flops_per_zone;
    ks.bytes_sum += r.info.bytes_per_zone;
    ks.imb_sum += r.info.work_imbalance;
    ks.info = r.info;
    ks.info.flops_per_zone = ks.flops_sum / ks.launches;
    ks.info.bytes_per_zone = ks.bytes_sum / ks.launches;
    ks.info.work_imbalance = ks.imb_sum / ks.launches;
}

double DeviceModel::elapsedSeconds() const {
    // Bodies serialize on the device; only launch gaps overlap. Elapsed is
    // therefore bounded below by total body time and above by the fully
    // serialized time; we take body-total plus the latency shared over
    // kStreams.
    double body_total = 0.0;
    double lat_total = 0.0;
    for (const auto& [name, ks] : m_stats) {
        body_total += ks.seconds - ks.launches * m_params.launch_latency;
        lat_total += ks.launches * m_params.launch_latency;
    }
    return body_total + lat_total / kStreams;
}

double DeviceModel::serializedSeconds() const { return m_serialized; }

} // namespace exa
