#include "mesh/box_array.hpp"

#include <algorithm>
#include <unordered_map>

namespace exa {

// --- spatial hash index --------------------------------------------------
//
// Boxes are binned into a lattice whose bin extent (per dimension) is the
// largest box extent in the array, so every box lands in at most 2^3 bins
// and a ghost-sized query touches a handful of bins. Bin coordinates are
// biased and packed into one 64-bit key.
struct BoxArray::HashIndex {
    IntVect bin{1, 1, 1}; // bin extent per dimension
    IntVect origin{0, 0, 0};
    IntVect bmin{0, 0, 0}, bmax{-1, -1, -1}; // populated bin-coordinate range
    std::unordered_map<std::uint64_t, std::vector<int>> bins;

    static std::uint64_t key(int bx, int by, int bz) {
        auto enc = [](int v) {
            return static_cast<std::uint64_t>(v + (1 << 20)) & 0x1fffff;
        };
        return enc(bx) | (enc(by) << 21) | (enc(bz) << 42);
    }
    IntVect binOf(const IntVect& p) const {
        return {coarsen_index(p.x - origin.x, bin.x),
                coarsen_index(p.y - origin.y, bin.y),
                coarsen_index(p.z - origin.z, bin.z)};
    }
};

const BoxArray::HashIndex& BoxArray::index() const {
    if (!m_index) {
        auto idx = std::make_shared<HashIndex>();
        for (const Box& b : m_boxes) {
            if (!b.ok()) continue;
            idx->bin = max(idx->bin, b.size());
            idx->origin = min(idx->origin, b.smallEnd());
        }
        bool first = true;
        for (std::size_t i = 0; i < m_boxes.size(); ++i) {
            const Box& b = m_boxes[i];
            if (!b.ok()) continue;
            const IntVect lo = idx->binOf(b.smallEnd());
            const IntVect hi = idx->binOf(b.bigEnd());
            if (first) {
                idx->bmin = lo;
                idx->bmax = hi;
                first = false;
            } else {
                idx->bmin = min(idx->bmin, lo);
                idx->bmax = max(idx->bmax, hi);
            }
            for (int z = lo.z; z <= hi.z; ++z)
                for (int y = lo.y; y <= hi.y; ++y)
                    for (int x = lo.x; x <= hi.x; ++x)
                        idx->bins[HashIndex::key(x, y, z)].push_back(
                            static_cast<int>(i));
        }
        m_index = std::move(idx);
    }
    return *m_index;
}

void BoxArray::mutated() {
    m_id = std::make_shared<const LayoutId>();
    m_index.reset();
}

BoxArray& BoxArray::maxSize(const IntVect& max_size) {
    std::vector<Box> out;
    for (const auto& b : m_boxes) {
        auto pieces = chopDomain(b, max_size);
        out.insert(out.end(), pieces.begin(), pieces.end());
    }
    m_boxes = std::move(out);
    mutated();
    return *this;
}

std::int64_t BoxArray::numPts() const {
    std::int64_t n = 0;
    for (const auto& b : m_boxes) n += b.numPts();
    return n;
}

Box BoxArray::minimalBox() const {
    if (m_boxes.empty()) return Box{};
    IntVect lo = m_boxes.front().smallEnd();
    IntVect hi = m_boxes.front().bigEnd();
    for (const auto& b : m_boxes) {
        lo = min(lo, b.smallEnd());
        hi = max(hi, b.bigEnd());
    }
    return Box(lo, hi);
}

BoxArray& BoxArray::refine(int ratio) {
    for (auto& b : m_boxes) b.refine(ratio);
    mutated();
    return *this;
}

BoxArray& BoxArray::coarsen(int ratio) {
    for (auto& b : m_boxes) b.coarsen(ratio);
    mutated();
    return *this;
}

bool BoxArray::contains(const Box& bx) const {
    if (!bx.ok()) return true;
    // Subtract each overlapping box from the still-uncovered fragments of
    // bx. Correct for overlapping arrays (e.g. after join), unlike a
    // coverage-zone count, which double-counts overlapped zones.
    std::vector<Box> uncovered{bx};
    std::vector<Box> next;
    for (const auto& [i, isect] : intersections(bx)) {
        (void)i;
        next.clear();
        for (const Box& u : uncovered) {
            auto diff = boxDiff(u, isect);
            next.insert(next.end(), diff.begin(), diff.end());
        }
        uncovered.swap(next);
        if (uncovered.empty()) return true;
    }
    return uncovered.empty();
}

bool BoxArray::intersects(const Box& bx) const {
    if (!bx.ok() || m_boxes.empty()) return false;
    const HashIndex& idx = index();
    const IntVect qlo = max(idx.binOf(bx.smallEnd()), idx.bmin);
    const IntVect qhi = min(idx.binOf(bx.bigEnd()), idx.bmax);
    for (int z = qlo.z; z <= qhi.z; ++z)
        for (int y = qlo.y; y <= qhi.y; ++y)
            for (int x = qlo.x; x <= qhi.x; ++x) {
                auto it = idx.bins.find(HashIndex::key(x, y, z));
                if (it == idx.bins.end()) continue;
                for (int i : it->second) {
                    if (m_boxes[i].intersects(bx)) return true;
                }
            }
    return false;
}

std::vector<std::pair<int, Box>> BoxArray::intersections(const Box& bx) const {
    std::vector<std::pair<int, Box>> out;
    if (!bx.ok() || m_boxes.empty()) return out;
    const HashIndex& idx = index();
    const IntVect qlo = max(idx.binOf(bx.smallEnd()), idx.bmin);
    const IntVect qhi = min(idx.binOf(bx.bigEnd()), idx.bmax);
    std::vector<int> cand;
    for (int z = qlo.z; z <= qhi.z; ++z)
        for (int y = qlo.y; y <= qhi.y; ++y)
            for (int x = qlo.x; x <= qhi.x; ++x) {
                auto it = idx.bins.find(HashIndex::key(x, y, z));
                if (it == idx.bins.end()) continue;
                cand.insert(cand.end(), it->second.begin(), it->second.end());
            }
    // A box can sit in several queried bins; dedupe and restore the linear
    // scan's ascending-index order so callers see identical results.
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    for (int i : cand) {
        Box isect = m_boxes[i] & bx;
        if (isect.ok()) out.emplace_back(i, isect);
    }
    return out;
}

bool BoxArray::isDisjoint() const {
    for (std::size_t i = 0; i < m_boxes.size(); ++i) {
        if (!m_boxes[i].ok()) continue;
        for (const auto& [j, isect] : intersections(m_boxes[i])) {
            (void)isect;
            if (static_cast<std::size_t>(j) != i) return false;
        }
    }
    return true;
}

void BoxArray::join(const BoxArray& other) {
    m_boxes.insert(m_boxes.end(), other.m_boxes.begin(), other.m_boxes.end());
    mutated();
}

} // namespace exa
