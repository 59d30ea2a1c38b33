#pragma once

#include "core/arena.hpp"
#include "core/array4.hpp"
#include "core/box.hpp"
#include "core/executor.hpp"
#include "core/real.hpp"

#include <cassert>

namespace exa {

// A Fab: one contiguous four-dimensional (zone x component) block of fluid
// data covering a Box (typically a valid region plus ghost zones). Memory
// comes from an Arena, so under the simulated GPU model Fab data is
// "device-resident" and its allocation cost follows the arena ablation.
// Move-only, like a real device allocation handle.
class FArrayBox {
public:
    FArrayBox() = default;
    FArrayBox(const Box& bx, int ncomp, Arena* arena = nullptr);
    ~FArrayBox();

    FArrayBox(FArrayBox&& o) noexcept;
    FArrayBox& operator=(FArrayBox&& o) noexcept;
    FArrayBox(const FArrayBox&) = delete;
    FArrayBox& operator=(const FArrayBox&) = delete;

    void define(const Box& bx, int ncomp, Arena* arena = nullptr);
    void clear();

    const Box& box() const { return m_box; }
    int nComp() const { return m_ncomp; }
    bool isDefined() const { return m_data != nullptr; }
    // The arena this fab's payload lives in (null = The_Arena() default).
    // Lets MultiFab::Redistribute reallocate migrated fabs in kind.
    Arena* arena() const { return m_arena; }
    Real* dataPtr(int n = 0) { return m_data + static_cast<std::int64_t>(n) * m_box.numPts(); }
    const Real* dataPtr(int n = 0) const {
        return m_data + static_cast<std::int64_t>(n) * m_box.numPts();
    }

    Array4<Real> array() { return Array4<Real>(m_data, m_box, m_ncomp); }
    Array4<const Real> const_array() const {
        return Array4<const Real>(m_data, m_box, m_ncomp);
    }

    void setVal(Real v);
    void setVal(Real v, const Box& region, int comp, int ncomp);
    // setVal's kernel, for fused launches that fill many fabs at once.
    static KernelInfo setValKernel() { return KernelInfo::streaming("fab_setval", 8.0); }

    // Copy `ncomp` components from src over region `srcbox` into this fab
    // over `dstbox`. The two boxes must be the same shape; they may be at
    // different positions (used for periodic shifts).
    void copyFrom(const FArrayBox& src, const Box& srcbox, int scomp, const Box& dstbox,
                  int dcomp, int ncomp);
    // copyFrom's kernel and zone body, body(i, j, k, n) over dstbox, for
    // fused launches that copy many regions at once (plan delivery).
    static KernelInfo copyKernel() { return KernelInfo::streaming("fab_copy", 16.0); }
    auto copyBody(const FArrayBox& src, const Box& srcbox, int scomp, const Box& dstbox,
                  int dcomp) {
        assert(srcbox.size() == dstbox.size());
        assert(src.m_box.contains(srcbox) && m_box.contains(dstbox));
        auto d = array();
        auto s = src.const_array();
        const IntVect off = srcbox.smallEnd() - dstbox.smallEnd();
        return [=](int i, int j, int k, int n) {
            d(i, j, k, dcomp + n) = s(i + off.x, j + off.y, k + off.z, scomp + n);
        };
    }

    // this += a * src (same region in both fabs).
    void saxpy(Real a, const FArrayBox& src, const Box& region, int scomp, int dcomp,
               int ncomp);
    // saxpy's kernel and zone body, for fused MultiFab-wide launches.
    static KernelInfo saxpyKernel() { return KernelInfo::streaming("fab_saxpy", 24.0); }
    auto saxpyBody(Real a, const FArrayBox& src, int scomp, int dcomp) {
        auto d = array();
        auto s = src.const_array();
        return [=](int i, int j, int k, int n) {
            d(i, j, k, dcomp + n) += a * s(i, j, k, scomp + n);
        };
    }

    Real max(const Box& region, int comp) const;
    Real min(const Box& region, int comp) const;
    Real sum(const Box& region, int comp) const;
    // L-infinity / L2 norms over a region of one component.
    Real norminf(const Box& region, int comp) const;
    Real norm2(const Box& region, int comp) const;

private:
    Box m_box;
    int m_ncomp = 0;
    Real* m_data = nullptr;
    Arena* m_arena = nullptr;
};

} // namespace exa
