#include "mesh/multifab.hpp"

#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace exa {

MultiFab::MultiFab(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                   int ngrow, Arena* arena) {
    define(ba, dm, ncomp, ngrow, arena);
}

void MultiFab::define(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                      int ngrow, Arena* arena) {
    assert(ba.size() == dm.size());
    clear();
    m_ba = ba;
    m_dm = dm;
    m_ncomp = ncomp;
    m_ngrow = ngrow;
    m_fabs.reserve(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        m_fabs.emplace_back(grow(ba[i], ngrow), ncomp, arena);
    }
}

void MultiFab::clear() {
    m_fabs.clear();
    m_ba = BoxArray{};
    m_dm = DistributionMapping{};
    m_ncomp = 0;
    m_ngrow = 0;
}

void MultiFab::setVal(Real v) {
    setVal(v, 0, m_ncomp, m_ngrow);
}

void MultiFab::setVal(Real v, int comp, int ncomp, int ngrow) {
    ParallelFor(FArrayBox::setValKernel(), m_fabs.size(), ncomp,
                [&](std::size_t i) {
        auto a = m_fabs[i].array();
        return std::pair{grow(m_ba[i], ngrow) & m_fabs[i].box(),
                         [=](int ii, int j, int k, int n) { a(ii, j, k, comp + n) = v; }};
    });
}

std::vector<char> MultiFab::dropDecisions(const CopyPlan& plan) {
    std::vector<char> dropped;
    if (!fault::anyArmed()) return dropped;
    dropped.reserve(plan.items.size());
    for (const CopyItem& item : plan.items) {
        // Injection site: a dropped off-rank message — the payload never
        // arrives, so neither the copy nor its accounting happens and the
        // destination keeps whatever (stale) values it had. Local items
        // are in-memory copies, not messages, and cannot drop.
        dropped.push_back(!item.local() &&
                          fault::shouldFire(fault::Site::CommMessageDrop));
    }
    return dropped;
}

void MultiFab::deliverTails(const CopyPlan& plan, const std::vector<char>& dropped,
                            int dcomp, int ncomp, const char* tag) {
    const bool account = events::active();
    for (std::size_t t = 0; t < plan.items.size(); ++t) {
        if (!dropped.empty() && dropped[t]) continue;
        const CopyItem& item = plan.items[t];
        // Injection site: a corrupted message payload — one value of the
        // just-delivered region becomes NaN, as if the wire flipped bits.
        // The poisoned zone is the one nearest the receiving fab's valid
        // box, so a ghost-fill corruption actually feeds the stencils that
        // read it. Plain host write (not a launch) so Backend::Debug's
        // replay passes see identical state.
        if (fault::shouldFire(fault::Site::HaloPayloadCorrupt)) {
            const Box& vb = m_ba[item.dst_fab];
            IntVect p;
            for (int d = 0; d < 3; ++d) {
                p[d] = std::clamp(vb.smallEnd(d), item.dst_box.smallEnd(d),
                                  item.dst_box.bigEnd(d));
                if (p[d] < vb.smallEnd(d) || p[d] > vb.bigEnd(d)) {
                    p[d] = std::clamp(vb.bigEnd(d), item.dst_box.smallEnd(d),
                                      item.dst_box.bigEnd(d));
                }
            }
            m_fabs[item.dst_fab].array()(p.x, p.y, p.z, dcomp) =
                std::numeric_limits<Real>::quiet_NaN();
        }
        if (account && !item.local()) {
            events::publish(MessageRecord{item.src_rank, item.dst_rank,
                                          item.src_box.numPts() * ncomp *
                                              static_cast<int>(sizeof(Real)),
                                          tag});
        }
    }
}

void MultiFab::copyFromPlan(const CopyPlan& plan, const MultiFab& src, int scomp,
                            int dcomp, int ncomp, const char* tag) {
    const std::vector<char> dropped = dropDecisions(plan);
    // One launch for every item. A plan's items write disjoint regions and
    // read valid zones no item writes (ghosts from valid data, or another
    // MultiFab), so the fused launch keeps the per-item results.
    ParallelFor(FArrayBox::copyKernel(), plan.items.size(), ncomp, [&](std::size_t t) {
        const CopyItem& item = plan.items[t];
        const bool drop = !dropped.empty() && dropped[t];
        return std::pair{drop ? Box{} : item.dst_box,
                         m_fabs[item.dst_fab].copyBody(src.m_fabs[item.src_fab],
                                                       item.src_box, scomp,
                                                       item.dst_box, dcomp)};
    });
    deliverTails(plan, dropped, dcomp, ncomp, tag);
}

void MultiFab::FillBoundary(int scomp, int ncomp, const Periodicity& period) {
    assert(scomp + ncomp <= m_ncomp);
    if (m_fabs.empty()) return;
    const auto plan =
        CopierCache::instance().fillBoundary(m_ba, m_dm, m_ngrow, period);
    copyFromPlan(*plan, *this, scomp, scomp, ncomp, "fillboundary");
}

void MultiFab::ParallelCopy(const MultiFab& src, int scomp, int dcomp, int ncomp,
                            int dst_ng, const Periodicity& period) {
    assert(dst_ng <= m_ngrow);
    if (m_fabs.empty() || src.m_fabs.empty()) return;
    const auto plan = CopierCache::instance().parallelCopy(
        m_ba, m_dm, src.m_ba, src.m_dm, dst_ng, period);
    copyFromPlan(*plan, src, scomp, dcomp, ncomp, "parallelcopy");
}

void MultiFab::ParallelCopy(const MultiFab& src, const Periodicity& period) {
    assert(m_ncomp == src.m_ncomp);
    ParallelCopy(src, 0, 0, m_ncomp, 0, period);
}

MultiFab::RedistributeStats MultiFab::Redistribute(const DistributionMapping& new_dm,
                                                   const char* tag) {
    assert(new_dm.size() == m_ba.size());
    RedistributeStats st;
    if (m_fabs.empty()) return st;
    if (new_dm.ranks() == m_dm.ranks()) {
        // Nothing changes owner: keep the current mapping (and its id, so
        // cached plans stay warm).
        return st;
    }

    // Same disjoint BoxArray on both sides, so the cached plan is exactly
    // one self-intersection item per box — the migration manifest.
    const auto plan = CopierCache::instance().parallelCopy(
        m_ba, new_dm, m_ba, m_dm, 0, Periodicity::nonPeriodic());

    // In a distributed run each fab would be packed, shipped, and
    // reallocated on its new owner; here the "move" is a fresh allocation
    // (same arena) plus a local copy of the full grown box, which keeps
    // ghost zones bit-identical across the migration.
    std::vector<FArrayBox> moved;
    moved.reserve(m_fabs.size());
    for (std::size_t i = 0; i < m_fabs.size(); ++i) {
        const Box gb = fabbox(static_cast<int>(i));
        FArrayBox fab(gb, m_ncomp, m_fabs[i].arena());
        fab.copyFrom(m_fabs[i], gb, 0, gb, 0, m_ncomp);
        moved.push_back(std::move(fab));
    }

    const bool account = events::active();
    for (const CopyItem& item : plan->items) {
        if (item.local()) continue;
        ++st.boxes_moved;
        const std::int64_t bytes =
            item.src_box.numPts() * m_ncomp * static_cast<int>(sizeof(Real));
        st.bytes += bytes;
        if (account) {
            events::publish(MessageRecord{item.src_rank, item.dst_rank, bytes, tag});
        }
        // Injection site: one migrated payload corrupted in flight — the
        // first valid zone of the received fab becomes NaN. Plain host
        // write (not a launch) so Backend::Debug replay passes see
        // identical state.
        if (fault::shouldFire(fault::Site::MigrationPayloadCorrupt)) {
            const Box& vb = m_ba[item.dst_fab];
            moved[item.dst_fab].array()(vb.smallEnd(0), vb.smallEnd(1),
                                        vb.smallEnd(2), 0) =
                std::numeric_limits<Real>::quiet_NaN();
        }
    }

    m_fabs = std::move(moved);
    m_dm = new_dm;
    return st;
}

Real MultiFab::sum(int comp) const {
    Real s = 0;
    for (std::size_t i = 0; i < m_fabs.size(); ++i) s += m_fabs[i].sum(m_ba[i], comp);
    return s;
}

Real MultiFab::min(int comp) const {
    // Reduction identity: an empty (or undefined) MultiFab has min +inf
    // and max -inf, so folding it into a larger reduction is a no-op.
    Real m = std::numeric_limits<Real>::infinity();
    for (std::size_t i = 0; i < m_fabs.size(); ++i) {
        m = std::min(m, m_fabs[i].min(m_ba[i], comp));
    }
    return m;
}

Real MultiFab::max(int comp) const {
    Real m = -std::numeric_limits<Real>::infinity();
    for (std::size_t i = 0; i < m_fabs.size(); ++i) {
        m = std::max(m, m_fabs[i].max(m_ba[i], comp));
    }
    return m;
}

Real MultiFab::norminf(int comp) const {
    Real m = 0;
    for (std::size_t i = 0; i < m_fabs.size(); ++i) {
        m = std::max(m, m_fabs[i].norminf(m_ba[i], comp));
    }
    return m;
}

Real MultiFab::norm2(int comp) const {
    Real s = 0;
    for (std::size_t i = 0; i < m_fabs.size(); ++i) {
        const Real n = m_fabs[i].norm2(m_ba[i], comp);
        s += n * n;
    }
    return std::sqrt(s);
}

void MultiFab::saxpy(Real a, const MultiFab& x, int scomp, int dcomp, int ncomp) {
    assert(m_ba == x.m_ba);
    ParallelFor(FArrayBox::saxpyKernel(), m_fabs.size(), ncomp, [&](std::size_t i) {
        return std::pair{m_ba[i] & m_fabs[i].box() & x.m_fabs[i].box(),
                         m_fabs[i].saxpyBody(a, x.m_fabs[i], scomp, dcomp)};
    });
}

void MultiFab::plus(Real v, int comp, int ncomp) {
    ParallelFor(KernelInfo::streaming("fab_plus", 16.0), m_fabs.size(), ncomp,
                [&](std::size_t i) {
        auto a = m_fabs[i].array();
        return std::pair{m_ba[i] & m_fabs[i].box(),
                         [=](int ii, int j, int k, int n) { a(ii, j, k, comp + n) += v; }};
    });
}

void MultiFab::mult(Real v, int comp, int ncomp) {
    ParallelFor(KernelInfo::streaming("fab_mult", 16.0), m_fabs.size(), ncomp,
                [&](std::size_t i) {
        auto a = m_fabs[i].array();
        return std::pair{m_ba[i] & m_fabs[i].box(),
                         [=](int ii, int j, int k, int n) { a(ii, j, k, comp + n) *= v; }};
    });
}

void MultiFab::Copy(MultiFab& dst, const MultiFab& src, int scomp, int dcomp,
                    int ncomp, int ng) {
    assert(dst.m_ba == src.m_ba);
    assert(ng <= dst.nGrow() && ng <= src.nGrow());
    ParallelFor(FArrayBox::copyKernel(), dst.m_fabs.size(), ncomp, [&](std::size_t i) {
        const Box region = grow(dst.m_ba[i], ng);
        return std::pair{region, dst.m_fabs[i].copyBody(src.m_fabs[i], region, scomp,
                                                        region, dcomp)};
    });
}

void MultiFab::LinComb(MultiFab& dst, Real a, const MultiFab& x, Real b,
                       const MultiFab& y, int comp, int ncomp) {
    assert(dst.m_ba == x.m_ba && dst.m_ba == y.m_ba);
    ParallelFor(KernelInfo::streaming("mf_lincomb", 24.0), dst.m_fabs.size(), ncomp,
                [&](std::size_t i) {
        auto d = dst.m_fabs[i].array();
        auto xa = x.m_fabs[i].const_array();
        auto ya = y.m_fabs[i].const_array();
        return std::pair{dst.m_ba[i], [=](int ii, int j, int k, int n) {
            d(ii, j, k, comp + n) = a * xa(ii, j, k, comp + n) + b * ya(ii, j, k, comp + n);
        }};
    });
}

} // namespace exa
