#pragma once

// Coloured launches over ordered item lists, and the gather plan built on
// them: the one form of every coarse-fine copy into scratch (fillPatch
// interpolation, CompositeMg prolongation and FMG interpolation,
// MgCfBoundary's coarse gather, FluxRegister::CrseAdd).
//
// A fused launch (DESIGN.md §20) runs its tags as if all at once, so no
// two tags may write one cell. Where an ordered list of items does write
// cells more than once (gathers from a BoxArray that overlaps itself,
// shared coarse faces, reflux planes meeting at an inner corner), each
// item is coloured one more than the highest colour of any earlier item
// that writes a cell it writes. Items of one colour write disjoint cells,
// and launching colour by colour gives every cell its writes in list
// order, so the bits are those of one launch per item.

#include "core/parallel_for.hpp"
#include "mesh/multifab.hpp"

#include <span>
#include <vector>

namespace exa {

class LaunchColors {
public:
    // Append the next item of the list: it writes `region` of the fab or
    // scratch numbered `target` (a small dense index). Returns its colour.
    int add(int target, const Box& region);

    int numColors() const { return static_cast<int>(m_by_color.size()); }
    // The items of colour c, in list order.
    const std::vector<std::size_t>& items(int c) const {
        return m_by_color[static_cast<std::size_t>(c)];
    }

private:
    struct Write {
        Box region;
        int color = 0;
    };
    std::vector<Write> m_writes;
    std::vector<std::vector<std::size_t>> m_by_target; // item indices per target
    std::vector<std::vector<std::size_t>> m_by_color;
};

// One fused launch per colour, colours in ascending order; tag(t) takes
// an item index of the coloured list and returns the pair the fused
// ParallelFor expects.
template <typename TagFn>
void ParallelFor(const KernelInfo& ki, const LaunchColors& colors, int ncomp, TagFn&& tag) {
    for (int c = 0; c < colors.numColors(); ++c) {
        const std::vector<std::size_t>& list = colors.items(c);
        ParallelFor(ki, list.size(), ncomp, [&](std::size_t t) { return tag(list[t]); });
    }
}

// Copies of source valid data (with periodic images) into a list of
// scratch boxes, in gather order: scratch box, then periodic shift, then
// ascending source fab. Ghost zones of a source are never read: they may
// be stale, and their periodic images could overwrite valid data. The
// plan holds only layout metadata, so one plan serves any MultiFab on the
// source layout and may be shared between threads.
class GatherPlan {
public:
    struct Item {
        int scratch = 0; // index of the scratch box written
        int src = 0;     // source slot: the add() call that made the item
        int src_fab = 0;
        Box src_box; // read, in the source fab's frame
        Box dst_box; // written, shifted into the scratch frame
    };

    // Append `boxes` as scratch boxes gathering from a new source slot
    // laid out on `src_ba`.
    void add(std::span<const Box> boxes, const BoxArray& src_ba,
             const Periodicity& period = Periodicity::nonPeriodic());

    const std::vector<Box>& boxes() const { return m_boxes; }
    const std::vector<Item>& items() const { return m_items; }
    int numColors() const { return m_colors.numColors(); }

    // Zero every scratch, then gather components [scomp, scomp + ncomp)
    // of src[slot] into components [0, ncomp): one fab_setval launch over
    // every scratch and one fab_copy launch per colour. `scratch` is
    // resized to boxes().size(); a fab whose box or component count does
    // not match is (re)defined.
    void run(std::span<const MultiFab* const> src, int scomp, int ncomp,
             std::vector<FArrayBox>& scratch) const;
    void run(const MultiFab& src, int scomp, int ncomp,
             std::vector<FArrayBox>& scratch) const {
        const MultiFab* const one[] = {&src};
        run(one, scomp, ncomp, scratch);
    }

private:
    std::vector<Box> m_boxes;
    std::vector<Item> m_items;
    LaunchColors m_colors;
    int m_nsrc = 0;
};

} // namespace exa
