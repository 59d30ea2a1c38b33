#pragma once

#include "core/box.hpp"
#include "mesh/layout_id.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace exa {

// An ordered collection of disjoint boxes at one level of refinement —
// the mesh's unit of domain decomposition. Boxes are the quanta of work
// distribution: an MPI rank owns whole boxes, and a GPU kernel is launched
// per box. The paper's load-balancing discussion (6 ranks/node not
// dividing 64 boxes) is entirely about this object.
//
// Queries (intersections / intersects / contains / isDisjoint) run against
// a lazily built spatial hash: boxes binned into a lattice coarsened by the
// largest box extent per dimension, so a query touches O(1) bins instead of
// scanning all N boxes. The index is shared by copies and rebuilt after any
// mutation.
class BoxArray {
public:
    BoxArray() = default;
    explicit BoxArray(const Box& single)
        : m_boxes{single}, m_id(std::make_shared<const LayoutId>()) {}
    explicit BoxArray(std::vector<Box> boxes)
        : m_boxes(std::move(boxes)), m_id(std::make_shared<const LayoutId>()) {}

    // Chop every box so that no side exceeds max_size zones.
    BoxArray& maxSize(const IntVect& max_size);
    BoxArray& maxSize(int max_size) { return maxSize(IntVect(max_size)); }

    std::size_t size() const { return m_boxes.size(); }
    bool empty() const { return m_boxes.empty(); }
    const Box& operator[](std::size_t i) const { return m_boxes[i]; }
    const std::vector<Box>& boxes() const { return m_boxes; }

    std::int64_t numPts() const;

    // Smallest single box containing every box in the array.
    Box minimalBox() const;

    BoxArray& refine(int ratio);
    BoxArray& coarsen(int ratio);

    // True if bx is entirely covered by the union of our boxes (correct
    // whether or not the boxes overlap).
    bool contains(const Box& bx) const;
    bool intersects(const Box& bx) const;

    // All (box index, intersection) pairs overlapping bx, ordered by box
    // index (the same order as a linear scan).
    std::vector<std::pair<int, Box>> intersections(const Box& bx) const;

    // True if the boxes are pairwise disjoint (a well-formed level).
    bool isDisjoint() const;

    // Union with another array (no disjointness enforcement).
    void join(const BoxArray& other);

    // Stable identity for communication-metadata caching (CopierCache).
    // Copies share the id; every mutation (maxSize, refine, coarsen, join)
    // assigns a fresh process-unique id. Equal ids therefore imply equal
    // boxes — never the converse — so id equality is a safe cache key.
    // Cached plans keyed on an id die with its last copy. A
    // default-constructed (empty) array has id 0 and no identity.
    std::uint64_t id() const { return m_id ? m_id->value() : 0; }
    const LayoutId* identity() const { return m_id.get(); }

    bool operator==(const BoxArray& o) const {
        return m_id == o.m_id || m_boxes == o.m_boxes;
    }

private:
    struct HashIndex;
    const HashIndex& index() const; // build lazily
    void mutated(); // new identity + drop the spatial index

    std::vector<Box> m_boxes;
    std::shared_ptr<const LayoutId> m_id;
    mutable std::shared_ptr<const HashIndex> m_index;
};

} // namespace exa
