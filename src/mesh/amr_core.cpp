#include "mesh/amr_core.hpp"

#include "core/parallel_for.hpp"

#include <cassert>

namespace exa {

AmrCore::AmrCore(const Geometry& level0_geom, const AmrInfo& info) : m_info(info) {
    m_geom.resize(info.max_level + 1);
    m_ba.resize(info.max_level + 1);
    m_dm.resize(info.max_level + 1);
    m_geom[0] = level0_geom;
    for (int lev = 1; lev <= info.max_level; ++lev) {
        m_geom[lev] = m_geom[lev - 1].refined(info.ref_ratio);
    }
}

void AmrCore::initBaseLevel() {
    BoxArray ba(m_geom[0].domain());
    ba.maxSize(m_info.max_grid_size);
    m_ba[0] = ba;
    m_dm[0] = DistributionMapping(ba, m_info.nranks);
    m_finest_level = 0;
    MakeNewLevelFromScratch(0, m_ba[0], m_dm[0]);
}

double AmrCore::coveredFraction(int lev) const {
    const auto dom_pts = m_geom[lev].domain().numPts();
    return dom_pts > 0 ? static_cast<double>(m_ba[lev].numPts()) / dom_pts : 0.0;
}

BoxArray AmrCore::makeFineBoxes(int lev) {
    // Tag on level lev.
    MultiFab tags(m_ba[lev], m_dm[lev], 1, 0);
    tags.setVal(0.0);
    ErrorEst(lev, tags);

    // Buffer the tags so features have room to move between regrids.
    if (m_info.n_error_buf > 0) {
        MultiFab buf(m_ba[lev], m_dm[lev], 1, m_info.n_error_buf);
        buf.setVal(0.0);
        for (std::size_t i = 0; i < tags.size(); ++i) {
            auto t = tags.const_array(static_cast<int>(i));
            auto b = buf.array(static_cast<int>(i));
            const int nb = m_info.n_error_buf;
            // Writes are idempotent (every touched zone gets 1.0), so the
            // neighborhood stores stay order-independent under the Debug
            // backend's replay checks.
            ParallelFor(KernelInfo::streaming("amr_tag_buffer", 16.0),
                        tags.box(static_cast<int>(i)), [=](int ii, int j, int k) {
                if (t(ii, j, k) != 0.0) {
                    for (int dk = -nb; dk <= nb; ++dk)
                        for (int dj = -nb; dj <= nb; ++dj)
                            for (int di = -nb; di <= nb; ++di)
                                if (b.contains(ii + di, j + dj, k + dk))
                                    b(ii + di, j + dj, k + dk) = 1.0;
                }
            });
        }
        // Merge buffered tags back (including images that landed in ghost
        // zones of neighboring fabs).
        tags.setVal(0.0);
        tags.ParallelCopy(buf, 0, 0, 1, 0, m_geom[lev].periodicity());
        for (std::size_t i = 0; i < tags.size(); ++i) {
            auto t = tags.array(static_cast<int>(i));
            auto b = buf.const_array(static_cast<int>(i));
            ParallelFor(KernelInfo::streaming("amr_tag_merge", 16.0),
                        tags.box(static_cast<int>(i)), [=](int ii, int j, int k) {
                if (b(ii, j, k) != 0.0) t(ii, j, k) = 1.0;
            });
        }
    }

    // Cluster into boxes on level lev, then refine to level lev+1.
    TagCluster cluster(m_info.blocking_factor);
    std::vector<Box> boxes = cluster.cluster(tags, m_geom[lev].domain());

    // Proper nesting: a fine box must sit inside the grids of this level,
    // or FillPatch would have no parent data under its ghost zones. Clip
    // clustered boxes against this level's BoxArray.
    std::vector<Box> nested;
    for (const Box& b : boxes) {
        for (const auto& [idx, isect] : m_ba[lev].intersections(b)) {
            (void)idx;
            nested.push_back(isect);
        }
    }
    // And strictly inside it: keep fine grids n_proper zones away from the
    // union's boundary (level 0 covers its domain, so nothing to do
    // there), or the zone just outside a coarse/fine face — the one
    // refluxing corrects and ghost interpolation reads — would not exist
    // on this level. Subtract the grown complement of the union, periodic
    // images included.
    if (m_info.n_proper > 0 && lev > 0) {
        const Box& dom = m_geom[lev].domain();
        std::vector<Box> comp{dom};
        for (std::size_t i = 0; i < m_ba[lev].size(); ++i) {
            std::vector<Box> next;
            for (const Box& c : comp)
                for (const Box& q : boxDiff(c, m_ba[lev][i])) next.push_back(q);
            comp.swap(next);
        }
        std::vector<Box> forbidden;
        for (const Box& c : comp) {
            const Box g = grow(c, m_info.n_proper);
            for (int sk : {-1, 0, 1})
                for (int sj : {-1, 0, 1})
                    for (int si : {-1, 0, 1}) {
                        if ((si != 0 && !m_geom[lev].isPeriodic(0)) ||
                            (sj != 0 && !m_geom[lev].isPeriodic(1)) ||
                            (sk != 0 && !m_geom[lev].isPeriodic(2))) {
                            continue;
                        }
                        Box s = g;
                        s.shift(0, si * dom.length(0));
                        s.shift(1, sj * dom.length(1));
                        s.shift(2, sk * dom.length(2));
                        if (s.intersects(dom)) forbidden.push_back(s & dom);
                    }
        }
        std::vector<Box> shrunk;
        for (const Box& b : nested) {
            std::vector<Box> pieces{b};
            for (const Box& f : forbidden) {
                std::vector<Box> next;
                for (const Box& p : pieces)
                    for (const Box& q : boxDiff(p, f)) next.push_back(q);
                pieces.swap(next);
            }
            shrunk.insert(shrunk.end(), pieces.begin(), pieces.end());
        }
        nested.swap(shrunk);
    }
    BoxArray fine(std::move(nested));
    fine.refine(m_info.ref_ratio);
    fine.maxSize(m_info.max_grid_size);
    return fine;
}

void AmrCore::regrid(int lbase) {
    assert(lbase >= 0 && lbase <= m_finest_level);
    int new_finest = lbase;
    for (int lev = lbase; lev < m_info.max_level; ++lev) {
        BoxArray fine = makeFineBoxes(lev);
        if (fine.empty()) break;
        const int flev = lev + 1;
        new_finest = flev;
        DistributionMapping dm(fine, m_info.nranks);
        if (flev > m_finest_level) {
            m_ba[flev] = fine;
            m_dm[flev] = dm;
            MakeNewLevelFromCoarse(flev, fine, dm);
        } else if (!(fine == m_ba[flev])) {
            m_ba[flev] = fine;
            m_dm[flev] = dm;
            RemakeLevel(flev, fine, dm);
        }
    }
    for (int lev = new_finest + 1; lev <= m_finest_level; ++lev) {
        ClearLevel(lev);
        m_ba[lev] = BoxArray{};
        m_dm[lev] = DistributionMapping{};
    }
    m_finest_level = new_finest;
}

} // namespace exa
