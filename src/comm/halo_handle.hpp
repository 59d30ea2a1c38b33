#pragma once

// Split-phase halo exchange handle. A blocking MultiFab::FillBoundary is
//
//     auto h = mf.FillBoundary_nowait(scomp, ncomp, period);  // post
//     ... interior kernels, independent of ghost data ...
//     h.finish();                                             // deliver
//
// The post phase executes the cached CopyPlan's *pack* work — every
// source region is staged into exchange buffers, so the destination fabs
// are untouched while the exchange is "on the wire" (under Backend::Debug
// the in-flight destination zones read quiet NaN until finish(), so an
// early read shows up as a Debug-vs-Serial bit difference). finish()
// unpacks the staged payloads in exact plan-item order and runs the
// event-stream and fault-injection accounting precisely as the blocking
// call does, so byte/message counts, deterministic fault schedules and
// results are identical to the blocking call on every backend.
//
// Lifecycle contract: finish() exactly once. The destructor completes a
// still-pending exchange (RAII safety net) and, under Backend::Debug,
// reports a "halo-unfinished" violation; a second finish() is a no-op
// that reports "halo-double-finish" under Backend::Debug.
//
// Declared in src/comm (it is the comm layer's public handle type) but
// defined in src/mesh/halo_exchange.cpp: exastro_comm links against
// exastro_mesh, so the implementation lives below MultiFab, not above.

#include <memory>

namespace exa {

class MultiFab;

namespace comm {

class HaloHandle {
public:
    // An empty handle: nothing pending, finish() is a no-op.
    HaloHandle();
    ~HaloHandle();

    HaloHandle(HaloHandle&&) noexcept;
    HaloHandle& operator=(HaloHandle&&) noexcept;
    HaloHandle(const HaloHandle&) = delete;
    HaloHandle& operator=(const HaloHandle&) = delete;

    // Deliver the staged exchange into the destination's ghost zones and
    // publish its accounting events. Idempotent only in the sense that a
    // second call does nothing — under Backend::Debug it is diagnosed.
    void finish();

    // True between post and finish.
    bool pending() const;

private:
    friend class ::exa::MultiFab;
    struct Impl;
    explicit HaloHandle(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> m_impl;
};

} // namespace comm
} // namespace exa
