#pragma once

// Shared helpers for the figure-reproduction benches: run a real solver
// at laptop scale under the simulated-GPU backend, extract the measured
// kernel mix, and feed it to the Summit scaling model. This is the
// measured-compute / modeled-network split described in DESIGN.md.

#include "core/executor.hpp"
#include "perf/device_model.hpp"
#include "perf/scaling.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace exa::benchutil {

// Convert the per-kernel launch statistics of a real instrumented run
// into the per-box-per-step launch specs the scaling model consumes.
inline std::vector<KernelLaunchSpec> kernelMix(const DeviceModel& dev, int nboxes,
                                               int nsteps,
                                               std::int64_t zones_per_box) {
    std::vector<KernelLaunchSpec> mix;
    for (const auto& [name, ks] : dev.kernelStats()) {
        KernelLaunchSpec spec;
        spec.info = ks.info;
        spec.launches_per_box_per_step =
            static_cast<double>(ks.launches) / (static_cast<double>(nboxes) * nsteps);
        spec.zones_fraction = static_cast<double>(ks.zones) /
                              (static_cast<double>(ks.launches) * zones_per_box);
        mix.push_back(spec);
    }
    return mix;
}

// Median and quartiles (linear interpolation between order statistics)
// of repeated host measurements: single runs on a shared host cannot
// resolve the differences the benches report.
struct Quartiles {
    double lo, median, hi;
};
inline Quartiles quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        const double x = q * static_cast<double>(v.size() - 1);
        const std::size_t i = static_cast<std::size_t>(x);
        if (i + 1 >= v.size()) return v.back();
        return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

inline void printHeader(const char* title) {
    std::printf("\n==============================================================\n");
    std::printf("%s\n", title);
    std::printf("==============================================================\n");
}

inline void printRow(const char* label, double measured, double paper,
                     const char* unit) {
    std::printf("  %-42s %12.4g %12.4g  %s\n", label, measured, paper, unit);
}

} // namespace exa::benchutil
