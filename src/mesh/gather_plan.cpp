#include "mesh/gather_plan.hpp"

#include <algorithm>
#include <cassert>

namespace exa {

int LaunchColors::add(int target, const Box& region) {
    assert(target >= 0);
    if (static_cast<std::size_t>(target) >= m_by_target.size())
        m_by_target.resize(static_cast<std::size_t>(target) + 1);
    std::vector<std::size_t>& earlier = m_by_target[static_cast<std::size_t>(target)];
    int color = 0;
    for (const std::size_t b : earlier) {
        if (m_writes[b].region.intersects(region))
            color = std::max(color, m_writes[b].color + 1);
    }
    const std::size_t t = m_writes.size();
    earlier.push_back(t);
    m_writes.push_back(Write{region, color});
    if (static_cast<std::size_t>(color) >= m_by_color.size())
        m_by_color.resize(static_cast<std::size_t>(color) + 1);
    m_by_color[static_cast<std::size_t>(color)].push_back(t);
    return color;
}

void GatherPlan::add(std::span<const Box> boxes, const BoxArray& src_ba,
                     const Periodicity& period) {
    const int slot = m_nsrc++;
    const auto shifts = period.shifts();
    for (const Box& box : boxes) {
        const int scratch = static_cast<int>(m_boxes.size());
        m_boxes.push_back(box);
        for (const IntVect& s : shifts) {
            // src_box = src_ba[j] & shift(box, -s); the hashed query
            // returns ascending j.
            for (const auto& [j, src_box] : src_ba.intersections(shift(box, -s))) {
                const Box dst_box = shift(src_box, s);
                m_items.push_back(Item{scratch, slot, j, src_box, dst_box});
                m_colors.add(scratch, dst_box);
            }
        }
    }
}

void GatherPlan::run(std::span<const MultiFab* const> src, int scomp, int ncomp,
                     std::vector<FArrayBox>& scratch) const {
    assert(static_cast<int>(src.size()) == m_nsrc);
    scratch.resize(m_boxes.size());
    for (std::size_t t = 0; t < m_boxes.size(); ++t) {
        if (scratch[t].box() != m_boxes[t] || scratch[t].nComp() != ncomp)
            scratch[t].define(m_boxes[t], ncomp);
    }
    ParallelFor(FArrayBox::setValKernel(), scratch.size(), ncomp, [&](std::size_t t) {
        auto a = scratch[t].array();
        return std::pair{m_boxes[t], [=](int i, int j, int k, int n) { a(i, j, k, n) = 0.0; }};
    });
    ParallelFor(FArrayBox::copyKernel(), m_colors, ncomp, [&](std::size_t t) {
        const Item& item = m_items[t];
        const MultiFab& from = *src[static_cast<std::size_t>(item.src)];
        return std::pair{item.dst_box,
                         scratch[static_cast<std::size_t>(item.scratch)].copyBody(
                             from.fab(item.src_fab), item.src_box, scomp, item.dst_box, 0)};
    });
}

} // namespace exa
