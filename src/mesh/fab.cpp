#include "mesh/fab.hpp"

#include "core/parallel_for.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace exa {

FArrayBox::FArrayBox(const Box& bx, int ncomp, Arena* arena) {
    define(bx, ncomp, arena);
}

FArrayBox::~FArrayBox() { clear(); }

FArrayBox::FArrayBox(FArrayBox&& o) noexcept
    : m_box(o.m_box), m_ncomp(o.m_ncomp), m_data(o.m_data), m_arena(o.m_arena) {
    o.m_data = nullptr;
    o.m_ncomp = 0;
    o.m_box = Box{};
}

FArrayBox& FArrayBox::operator=(FArrayBox&& o) noexcept {
    if (this != &o) {
        clear();
        m_box = o.m_box;
        m_ncomp = o.m_ncomp;
        m_data = o.m_data;
        m_arena = o.m_arena;
        o.m_data = nullptr;
        o.m_ncomp = 0;
        o.m_box = Box{};
    }
    return *this;
}

void FArrayBox::define(const Box& bx, int ncomp, Arena* arena) {
    clear();
    assert(bx.ok() && ncomp > 0);
    m_box = bx;
    m_ncomp = ncomp;
    m_arena = arena != nullptr ? arena : The_Arena();
    m_data = static_cast<Real*>(
        m_arena->allocate(sizeof(Real) * bx.numPts() * ncomp));
}

void FArrayBox::clear() {
    if (m_data != nullptr) {
        m_arena->deallocate(m_data);
        m_data = nullptr;
    }
    m_ncomp = 0;
    m_box = Box{};
}

void FArrayBox::setVal(Real v) {
    setVal(v, m_box, 0, m_ncomp);
}

void FArrayBox::setVal(Real v, const Box& region, int comp, int ncomp) {
    auto a = array();
    const Box b = region & m_box;
    ParallelFor(setValKernel(), b, ncomp,
                [=](int i, int j, int k, int n) { a(i, j, k, comp + n) = v; });
}

void FArrayBox::copyFrom(const FArrayBox& src, const Box& srcbox, int scomp,
                         const Box& dstbox, int dcomp, int ncomp) {
    ParallelFor(copyKernel(), dstbox, ncomp, copyBody(src, srcbox, scomp, dstbox, dcomp));
}

void FArrayBox::saxpy(Real a, const FArrayBox& src, const Box& region, int scomp,
                      int dcomp, int ncomp) {
    ParallelFor(saxpyKernel(), region & m_box & src.box(), ncomp,
                saxpyBody(a, src, scomp, dcomp));
}

Real FArrayBox::max(const Box& region, int comp) const {
    auto a = const_array();
    return ParallelReduceMax(region & m_box,
                             [=](int i, int j, int k) { return a(i, j, k, comp); });
}

Real FArrayBox::min(const Box& region, int comp) const {
    auto a = const_array();
    return ParallelReduceMin(region & m_box,
                             [=](int i, int j, int k) { return a(i, j, k, comp); });
}

Real FArrayBox::sum(const Box& region, int comp) const {
    auto a = const_array();
    return ParallelReduceSum(region & m_box,
                             [=](int i, int j, int k) { return a(i, j, k, comp); });
}

Real FArrayBox::norminf(const Box& region, int comp) const {
    auto a = const_array();
    return ParallelReduceMax(region & m_box, [=](int i, int j, int k) {
        return std::abs(a(i, j, k, comp));
    });
}

Real FArrayBox::norm2(const Box& region, int comp) const {
    auto a = const_array();
    Real s = ParallelReduceSum(region & m_box, [=](int i, int j, int k) {
        return a(i, j, k, comp) * a(i, j, k, comp);
    });
    return std::sqrt(s);
}

} // namespace exa
