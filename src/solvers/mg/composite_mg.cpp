#include "solvers/mg/composite_mg.hpp"

#include "comm/halo_handle.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/parallel_for.hpp"
#include "core/timer.hpp"
#include "mesh/copier_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace exa {

namespace {

bool coarsenableDomain(const Box& b, int min_side) {
    return b.length(0) % 2 == 0 && b.length(1) % 2 == 0 &&
           b.length(2) % 2 == 0 && b.length(0) > min_side &&
           b.length(1) > min_side && b.length(2) > min_side;
}

// Red-black Gauss-Seidel sweeps per rung visit before and after the
// coarse correction of a V-cycle (CompositeMg::kBottomSmooth on the
// coarsest rung).
constexpr int kPreSmooth = 2;
constexpr int kPostSmooth = 2;

// 1/dx^2 in each direction: the coefficients of the 7-point Laplacian.
struct InvSpacing2 {
    Real x, y, z;
};

InvSpacing2 invSpacing2(const Geometry& g) {
    return {1.0 / (g.cellSize(0) * g.cellSize(0)),
            1.0 / (g.cellSize(1) * g.cellSize(1)),
            1.0 / (g.cellSize(2) * g.cellSize(2))};
}

// The six face neighbours of one zone.
struct Neighbours {
    Real xm, xp, ym, yp, zm, zp;
};

// How a stencil reads the face neighbours of a zone on the domain
// boundary. Across a non-periodic face the neighbour is sgn * p(i,j,k)
// (Dirichlet -1, Neumann +1), the value mgApplyDomainBC would write into
// that ghost, so no stencil needs a boundary launch first. On an
// exchange-free rung (its one box is the periodic domain) a periodic
// face reads the image zone `wrap` zones across the box instead of a
// ghost. Every other neighbour is p's own zone, valid or ghost.
struct DomainFaces {
    int lo[3], hi[3]; // zones whose low / high neighbour is replaced
    int wrap[3];      // 0: mirror the zone itself; else the image's offset
    Real s[3];

    template <class A>
    Neighbours read(const A& p, int i, int j, int k) const {
        return {i == lo[0] ? s[0] * p(i + wrap[0], j, k) : p(i - 1, j, k),
                i == hi[0] ? s[0] * p(i - wrap[0], j, k) : p(i + 1, j, k),
                j == lo[1] ? s[1] * p(i, j + wrap[1], k) : p(i, j - 1, k),
                j == hi[1] ? s[1] * p(i, j - wrap[1], k) : p(i, j + 1, k),
                k == lo[2] ? s[2] * p(i, j, k + wrap[2]) : p(i, j, k - 1),
                k == hi[2] ? s[2] * p(i, j, k - wrap[2]) : p(i, j, k + 1)};
    }
};

// Mirror every non-periodic face under a Dirichlet or Neumann BC; with
// `wrap_periodic`, also read every periodic face's image inline.
DomainFaces domainFaces(const Geometry& g, MgBC bc, bool wrap_periodic) {
    DomainFaces f;
    const Box& dom = g.domain();
    for (int d = 0; d < 3; ++d) {
        const bool per = g.isPeriodic(d);
        const bool inline_face = per ? wrap_periodic : bc != MgBC::Periodic;
        f.lo[d] = inline_face ? dom.smallEnd(d) : std::numeric_limits<int>::min();
        f.hi[d] = inline_face ? dom.bigEnd(d) : std::numeric_limits<int>::max();
        f.wrap[d] = per ? dom.length(d) - 1 : 0;
        f.s[d] = per || bc == MgBC::Neumann ? 1.0 : -1.0;
    }
    return f;
}

// The 7-point Laplacian of p at (i, j, k). Every operator, residual and
// FAS right-hand side evaluates it in this one order, so they agree to
// the bit.
template <class A>
inline Real laplacian(const A& p, const DomainFaces& f, const InvSpacing2& h, int i,
                      int j, int k) {
    const Neighbours n = f.read(p, i, j, k);
    const Real c = p(i, j, k);
    return h.x * (n.xp - 2 * c + n.xm) + h.y * (n.yp - 2 * c + n.ym) +
           h.z * (n.zp - 2 * c + n.zm);
}

// The red-black Gauss-Seidel value of zone (i, j, k): what a half-sweep
// writes there. The half-sweep launch and the bottom replay both call it,
// so they agree to the bit.
template <class P, class B>
inline Real gsValue(const P& p, const B& b, const DomainFaces& f, const InvSpacing2& h,
                    Real diag, int i, int j, int k) {
    const Neighbours n = f.read(p, i, j, k);
    const Real sum = h.x * (n.xp + n.xm) + h.y * (n.yp + n.ym) + h.z * (n.zp + n.zm);
    return (sum - b(i, j, k)) / diag;
}

KernelInfo smoothKernel() {
    return KernelInfo{"mg_smooth", 12.0, 96.0, 40, 1.0};
}
// A replayed bottom visit: one work item runs `half_sweeps` half-sweeps
// over the rung's `zones` zones, about half of them each, and reads phi
// and rhs and writes phi once.
KernelInfo bottomKernel(int half_sweeps, std::int64_t zones) {
    return KernelInfo{"mg_bottom", half_sweeps * static_cast<double>((zones + 1) / 2) * 12.0,
                      24.0 * static_cast<double>(zones), 64, 1.0};
}
KernelInfo applyKernel() {
    return KernelInfo{"mg_residual", 10.0, 80.0, 40, 1.0};
}

} // namespace

CompositeMg::CompositeMg(std::vector<Geometry> geoms, std::vector<BoxArray> bas,
                         std::vector<DistributionMapping> dms, int ref_ratio,
                         MgBC bc, const CompositeMgOptions& opt)
    : m_bc(bc), m_opt(opt) {
    assert(!geoms.empty() && geoms.size() == bas.size() &&
           geoms.size() == dms.size());
    m_singular = (bc == MgBC::Periodic || bc == MgBC::Neumann);
    m_domain_volume = static_cast<Real>(geoms[0].domain().numPts()) *
                      geoms[0].cellVolume();

    // Geometric ladder below AMR level 0, by full coarsening, finest rung
    // first so each rung's layout can look at the finer one's. Restriction
    // by 2 averages two fine zones per coarse zone along each axis, so the
    // ladder ends above any rung with a box that does not coarsen by 2
    // (balanced chops split an even side into odd boxes: 10 at 8 is 5+5).
    struct GeometricRung {
        Geometry geom;
        BoxArray ba;
        DistributionMapping dm;
        bool aggregated = false;
    };
    std::vector<GeometricRung> below;
    for (Geometry g = geoms[0];
         coarsenableDomain(g.domain(), m_opt.min_level_side);) {
        const BoxArray& fine = below.empty() ? bas[0] : below.back().ba;
        if (!std::all_of(fine.boxes().begin(), fine.boxes().end(),
                         [](const Box& b) { return b.coarsenable(2); })) {
            break;
        }
        g = g.coarsened(2);
        GeometricRung R{g, BoxArray(g.domain()), {}, false};
        const std::int64_t zones = g.domain().numPts();
        const std::int64_t per =
            std::max<std::int64_t>(1, m_opt.agg_zones_per_rank);
        const int n_agg = static_cast<int>(std::clamp<std::int64_t>(
            (zones + per - 1) / per, 1, m_opt.nranks));
        R.aggregated = m_opt.aggregate_coarse && n_agg < m_opt.nranks;
        if (R.aggregated && n_agg == 1) {
            R.dm = DistributionMapping(R.ba, 1);
        } else if (R.aggregated) {
            R.ba.maxSize(m_opt.max_grid_size);
            std::vector<double> cost;
            cost.reserve(R.ba.size());
            for (const Box& b : R.ba.boxes())
                cost.push_back(static_cast<double>(b.numPts()));
            R.dm = DistributionMapping(R.ba, n_agg, cost,
                                       DistributionMapping::Strategy::Knapsack);
        } else {
            R.ba.maxSize(m_opt.max_grid_size);
            R.dm = DistributionMapping(R.ba, m_opt.nranks);
        }
        below.push_back(std::move(R));
    }
    m_base = static_cast<int>(below.size());
    const int namr = static_cast<int>(geoms.size());
    const int nrungs = m_base + namr;
    m_r.resize(static_cast<std::size_t>(nrungs));

    for (int r = 0; r < m_base; ++r) {
        Rung& R = m_r[static_cast<std::size_t>(r)];
        GeometricRung& G = below[static_cast<std::size_t>(m_base - 1 - r)];
        R.geom = G.geom;
        R.ba = std::move(G.ba);
        R.dm = std::move(G.dm);
        R.aggregated = G.aggregated;
    }
    // AMR rungs keep the hierarchy's own layouts (never relayouted, so
    // level data moves in and out without any redistribution).
    for (int lev = 0; lev < namr; ++lev) {
        Rung& R = m_r[static_cast<std::size_t>(m_base + lev)];
        R.geom = geoms[static_cast<std::size_t>(lev)];
        R.ba = bas[static_cast<std::size_t>(lev)];
        R.dm = dms[static_cast<std::size_t>(lev)];
        R.ratio = (lev == 0) ? 2 : ref_ratio;
        R.amr = true;
    }

    // Coverage, coarse-fine boundaries, and work fabs.
    for (int r = 0; r < nrungs; ++r) {
        Rung& R = m_r[static_cast<std::size_t>(r)];
        if (r > 0) {
            Rung& C = m_r[static_cast<std::size_t>(r - 1)];
            BoxArray cba = R.ba;
            cba.coarsen(R.ratio);
            R.covers_coarse = cba.numPts() == C.geom.domain().numPts();
            if (!R.covers_coarse) {
                R.cf = std::make_unique<MgCfBoundary>(C.geom, R.geom, R.ba,
                                                      R.dm, C.ba, C.dm,
                                                      R.ratio);
                if (R.cf->empty()) R.cf.reset();
            }
        }
        // A one-box rung without a coarse-fine boundary holds the whole
        // domain. Its half-sweep reads periodic images inline when they
        // have the other colour, i.e. at even length.
        R.exchange_free = R.ba.size() == 1 && !R.cf;
        for (int d = 0; d < 3; ++d) {
            if (R.geom.isPeriodic(d) && R.geom.domain().length(d) % 2 != 0)
                R.exchange_free = false;
        }
        assert(!R.exchange_free || R.ba[0] == R.geom.domain());
        R.phi.define(R.ba, R.dm, 1, 1);
        R.phi.setVal(0.0);
        R.rhs.define(R.ba, R.dm, 1, 0);
        R.rhs.setVal(0.0);
        R.res.define(R.ba, R.dm, 1, 0);
        R.res.setVal(0.0);
        if (r < nrungs - 1) {
            R.sav.define(R.ba, R.dm, 1, 0);
            R.sav.setVal(0.0);
        }
        if (R.amr && r < nrungs - 1) {
            R.rhs0.define(R.ba, R.dm, 1, 0);
            R.rhs0.setVal(0.0);
        }
    }
    // Gather plans of the transfers up from a rung that is not aggregated.
    for (int r = 1; r < nrungs; ++r) {
        Rung& F = m_r[static_cast<std::size_t>(r)];
        const Rung& C = m_r[static_cast<std::size_t>(r - 1)];
        if (C.aggregated) continue;
        std::vector<Box> under, ringed;
        for (const Box& b : F.ba.boxes()) {
            under.push_back(coarsen(b, F.ratio));
            ringed.push_back(grow(under.back(), 1));
        }
        F.prolong_gather.add(under, C.ba, C.geom.periodicity());
        F.fmg_gather.add(ringed, C.ba, C.geom.periodicity());
    }
    // Staging fabs live on the aggregated rung but use the finer rung's
    // box shapes (coarsened) and distribution, so restriction is fab-local
    // and the rank transition is a single cached ParallelCopy.
    for (int r = 0; r + 1 < nrungs; ++r) {
        Rung& C = m_r[static_cast<std::size_t>(r)];
        if (!C.aggregated) continue;
        const Rung& F = m_r[static_cast<std::size_t>(r + 1)];
        BoxArray sba = F.ba;
        sba.coarsen(F.ratio);
        C.stage.define(sba, F.dm, 1, 1);
        C.stage.setVal(0.0); // out-of-domain ghosts stay 0 forever
        auto& cache = CopierCache::instance();
        C.stage_restrict_bytes =
            cache.parallelCopy(C.ba, C.dm, sba, F.dm, 0, C.geom.periodicity())
                ->offrank_zones *
            static_cast<std::int64_t>(sizeof(Real));
        C.stage_prolong_bytes =
            cache.parallelCopy(sba, F.dm, C.ba, C.dm, 1, C.geom.periodicity())
                ->offrank_zones *
            static_cast<std::int64_t>(sizeof(Real));
    }
    // Uncovered valid regions of the AMR rungs (masked means, composite
    // residual norm).
    for (int r = m_base; r < nrungs; ++r) {
        Rung& R = m_r[static_cast<std::size_t>(r)];
        R.uncovered.resize(R.ba.size());
        if (r == nrungs - 1) {
            for (std::size_t q = 0; q < R.ba.size(); ++q)
                R.uncovered[q] = {R.ba[static_cast<int>(q)]};
            continue;
        }
        const Rung& F = m_r[static_cast<std::size_t>(r + 1)];
        auto plan = CopierCache::instance().averageDown(R.ba, F.ba, F.ratio);
        for (std::size_t q = 0; q < R.ba.size(); ++q)
            R.uncovered[q] = {R.ba[static_cast<int>(q)]};
        for (const CopyItem& item : plan->items) {
            auto& rem = R.uncovered[static_cast<std::size_t>(item.dst_fab)];
            std::vector<Box> next;
            for (const Box& b : rem) {
                const auto diff = boxDiff(b, item.dst_box);
                next.insert(next.end(), diff.begin(), diff.end());
            }
            rem.swap(next);
        }
    }
}

int CompositeMg::aggregatedRungs() const {
    int n = 0;
    for (const Rung& R : m_r) n += R.aggregated ? 1 : 0;
    return n;
}

int CompositeMg::exchangeFreeRungs() const {
    int n = 0;
    for (const Rung& R : m_r) n += R.exchange_free ? 1 : 0;
    return n;
}

void CompositeMg::fillGhostsRung(int r) {
    Rung& R = m_r[static_cast<std::size_t>(r)];
    // An exchange-free rung's own stencils read its periodic images
    // inline, so only a finer rung's coarse-fine boundary needs its ghosts.
    const bool finer_reads = r + 1 < numRungs() && m_r[static_cast<std::size_t>(r + 1)].cf;
    if (!R.exchange_free || finer_reads) R.phi.FillBoundary(0, 1, R.geom.periodicity());
    if (R.cf) {
        R.cf->prepare(m_r[static_cast<std::size_t>(r - 1)].phi);
        R.cf->interpGhosts(R.phi);
    }
}

void CompositeMg::smoothRung(int r, int sweeps) {
    Rung& R = m_r[static_cast<std::size_t>(r)];
    const Geometry& g = R.geom;
    const InvSpacing2 h = invSpacing2(g);
    const Real diag = 2.0 * (h.x + h.y + h.z);
    const DomainFaces faces = domainFaces(g, m_bc, R.exchange_free);
    // The coarse data under the coarse-fine ghosts is frozen while this
    // rung smooths, so one gather serves every half-sweep.
    if (R.cf) R.cf->prepare(m_r[static_cast<std::size_t>(r - 1)].phi);
    MultiFab& phi = R.phi;
    const MultiFab& rhs = R.rhs;
    // One half-sweep launch over a list of regions; `region(t)` gives tag
    // t's fab and box. Fabs are disjoint and a half-sweep writes only
    // `color` zones while reading only the other color, so the regions
    // of every fab share one launch.
    auto sweep = [&](std::size_t ntags, int color, auto&& region) {
        ParallelFor(smoothKernel(), ntags, 1, [&](std::size_t t) {
            const auto [i, box] = region(t);
            auto p = phi.array(static_cast<int>(i));
            auto b = rhs.const_array(static_cast<int>(i));
            return std::pair{box, [=](int ii, int j, int k) {
                if (((ii + j + k) & 1) != color) return;
                p(ii, j, k) = gsValue(p, b, faces, h, diag, ii, j, k);
            }};
        });
    };
    if (r == 0 && R.exchange_free && R.ba[0].numPts() <= kReplayMaxZones) {
        // The whole visit in one launch of one work item, which replays
        // every half-sweep on phi in place, in colour order. A half-sweep
        // writes one colour and reads only the other (or, across a
        // Dirichlet or Neumann face, the zone itself), so the serial
        // replay computes each zone exactly as the half-sweep launches
        // would.
        const Box box = phi.box(0);
        const int half_sweeps = 2 * sweeps;
        auto p = phi.array(0);
        auto b = rhs.const_array(0);
        const Dim3 lo = box.loDim3();
        const Dim3 hi = box.hiDim3();
        ParallelFor(bottomKernel(half_sweeps, box.numPts()), Box(box.smallEnd(), box.smallEnd()),
                    [=](int, int, int) {
            // Half-sweep `half` updates the zones with (i + j + k) % 2 == half % 2.
            for (int half = 0; half < half_sweeps; ++half)
                for (int k = lo.z; k <= hi.z; ++k)
                    for (int j = lo.y; j <= hi.y; ++j)
                        for (int i = lo.x + ((lo.x + j + k + half) & 1); i <= hi.x; i += 2)
                            p(i, j, k) = gsValue(p, b, faces, h, diag, i, j, k);
        });
        m_stats.sweeps += half_sweeps;
        ++m_stats.bottom_replays;
        return;
    }
    if (R.exchange_free) {
        // The whole rung is one box whose every face neighbour is read
        // inline: one launch per half-sweep, no exchange to wait for.
        for (int half = 0; half < 2 * sweeps; ++half) {
            sweep(1, half % 2, [&](std::size_t) { return std::pair{std::size_t{0}, phi.box(0)}; });
            ++m_stats.sweeps;
        }
        return;
    }
    const auto part = CopierCache::instance().interiorPartition(R.ba, 1);
    for (int s = 0; s < sweeps; ++s) {
        for (int color = 0; color < 2; ++color) {
            // Post the same-level exchange, fill the coarse-fine ghosts
            // (independent of the in-flight traffic: they read coarse
            // scratch and fine valid zones), smooth fab interiors, then
            // deliver and smooth the shells, which read domain faces
            // inline. The half-sweep writes only `color` zones and reads
            // only the other color, so the split cannot change any result.
            comm::HaloHandle halo = phi.FillBoundary_nowait(*part, 0, 1, g.periodicity());
            if (R.cf) R.cf->interpGhosts(phi);
            sweep(phi.size(), color, [&](std::size_t i) {
                return std::pair{i, part->fabs[i].interior};
            });
            halo.finish();
            // Shell tag t is box t % kMaxShell of fab t / kMaxShell; the
            // slots a fab's shell does not use are empty tags.
            constexpr std::size_t m = FabRegions::kMaxShell;
            sweep(m * phi.size(), color, [&](std::size_t t) {
                const auto& shell = part->fabs[t / m].shell;
                return std::pair{t / m, t % m < shell.size() ? shell[t % m] : Box{}};
            });
            ++m_stats.sweeps;
        }
    }
}

void CompositeMg::applyOpNoFill(int r, const MultiFab& phi, MultiFab& out) {
    const Rung& R = m_r[static_cast<std::size_t>(r)];
    const Geometry& g = R.geom;
    const InvSpacing2 h = invSpacing2(g);
    const DomainFaces faces = domainFaces(g, m_bc, R.exchange_free);
    ParallelFor(applyKernel(), phi.size(), 1, [&](std::size_t i) {
        auto p = phi.const_array(static_cast<int>(i));
        auto o = out.array(static_cast<int>(i));
        return std::pair{out.box(static_cast<int>(i)), [=](int ii, int j, int k) {
            o(ii, j, k) = laplacian(p, faces, h, ii, j, k);
        }};
    });
}

void CompositeMg::applyResidual(int r, const MultiFab& rhs, MultiFab& res) {
    Rung& R = m_r[static_cast<std::size_t>(r)];
    const Geometry& g = R.geom;
    const InvSpacing2 h = invSpacing2(g);
    const DomainFaces faces = domainFaces(g, m_bc, R.exchange_free);
    ParallelFor(KernelInfo{"mg_comp_residual", 12.0, 104.0, 40, 1.0}, res.size(), 1,
                [&](std::size_t i) {
        auto p = R.phi.const_array(static_cast<int>(i));
        auto b = rhs.const_array(static_cast<int>(i));
        auto o = res.array(static_cast<int>(i));
        return std::pair{res.box(static_cast<int>(i)), [=](int ii, int j, int k) {
            o(ii, j, k) = b(ii, j, k) - laplacian(p, faces, h, ii, j, k);
        }};
    });
}

void CompositeMg::restrictIntoCoarse(int r, const MultiFab& fine,
                                     MultiFab& crse) {
    Rung& F = m_r[static_cast<std::size_t>(r)];
    Rung& C = m_r[static_cast<std::size_t>(r - 1)];
    if (C.aggregated) {
        averageDown(C.stage, fine, F.ratio, 0, 0, 1);
        crse.ParallelCopy(C.stage, 0, 0, 1, 0, C.geom.periodicity());
        ++m_stats.agg_copies;
        m_stats.agg_bytes += C.stage_restrict_bytes;
    } else {
        averageDown(crse, fine, F.ratio, 0, 0, 1);
    }
}

void CompositeMg::buildCoarseRhs(int r) {
    Rung& F = m_r[static_cast<std::size_t>(r)];
    Rung& C = m_r[static_cast<std::size_t>(r - 1)];
    if (F.covers_coarse) {
        // Classic FAS coarse equation: A_c(phi_c) + restricted residual.
        applyOpNoFill(r - 1, C.phi, C.rhs);
        C.rhs.saxpy(1.0, C.res, 0, 0, 1);
        return;
    }
    // Partial coverage: uncovered cells keep the user rhs, interface
    // cells get the reflux-style flux-mismatch correction, and covered
    // cells get the FAS deferred correction. The flux correction only
    // writes uncovered cells (parents of ghost pieces), so the three
    // writes compose without ordering hazards beyond Copy-first.
    MultiFab::Copy(C.rhs, C.rhs0, 0, 0, 1, 0);
    if (F.cf) F.cf->addFluxMismatch(C.rhs, F.phi, C.phi, -1.0);
    const Geometry& g = C.geom;
    const InvSpacing2 h = invSpacing2(g);
    const DomainFaces faces = domainFaces(g, m_bc, C.exchange_free);
    auto plan = CopierCache::instance().averageDown(C.ba, F.ba, F.ratio);
    ParallelFor(KernelInfo{"mg_fas_rhs", 12.0, 104.0, 40, 1.0}, plan->items.size(), 1,
                [&](std::size_t t) {
        const CopyItem& item = plan->items[t];
        auto p = C.phi.const_array(item.dst_fab);
        auto rs = C.res.const_array(item.dst_fab);
        auto o = C.rhs.array(item.dst_fab);
        return std::pair{item.dst_box, [=](int ii, int j, int k) {
            o(ii, j, k) = laplacian(p, faces, h, ii, j, k) + rs(ii, j, k);
        }};
    });
}

void CompositeMg::prolongAddCorrection(int r) {
    Rung& F = m_r[static_cast<std::size_t>(r)];
    Rung& C = m_r[static_cast<std::size_t>(r - 1)];
    // FAS correction relative to the restricted fine solution.
    MultiFab::LinComb(C.res, 1.0, C.phi, -1.0, C.sav, 0, 1);
    const int ratio = F.ratio;
    // The coarse correction under each fine fab: the staging fab of an
    // aggregated rung, else the rung's gather (zero-filled scratch with
    // the valid data copied in, as a ParallelCopy with ghosts delivers it
    // into a staging fab, so both paths see bit-identical values).
    std::vector<FArrayBox> gathered;
    if (C.aggregated) {
        C.stage.ParallelCopy(C.res, 0, 0, 1, 1, C.geom.periodicity());
        ++m_stats.agg_copies;
        m_stats.agg_bytes += C.stage_prolong_bytes;
    } else {
        F.prolong_gather.run(C.res, 0, 1, gathered);
    }
    ParallelFor(KernelInfo::streaming("mg_prolong_add", 24.0), F.phi.size(), 1,
                [&](std::size_t i) {
        auto f = F.phi.array(static_cast<int>(i));
        auto c = C.aggregated ? C.stage.const_array(static_cast<int>(i))
                              : gathered[i].const_array();
        return std::pair{F.phi.box(static_cast<int>(i)), [=](int ii, int j, int k) {
            f(ii, j, k) += c(coarsen_index(ii, ratio), coarsen_index(j, ratio),
                             coarsen_index(k, ratio));
        }};
    });
}

void CompositeMg::fmgInterp(int r) {
    Rung& F = m_r[static_cast<std::size_t>(r)];
    Rung& C = m_r[static_cast<std::size_t>(r - 1)];
    const int ratio = F.ratio;
    std::vector<FArrayBox> gathered;
    if (C.aggregated) {
        // dst_ng = 1 also fills the stage's in-domain ghosts, which the
        // conservative-linear stencil reads for its slopes.
        C.stage.ParallelCopy(C.phi, 0, 0, 1, 1, C.geom.periodicity());
        ++m_stats.agg_copies;
        m_stats.agg_bytes += C.stage_prolong_bytes;
    } else {
        F.fmg_gather.run(C.phi, 0, 1, gathered);
    }
    // One launch over every fine fab.
    ParallelFor(conslinKernel(), F.phi.size(), 1, [&](std::size_t i) {
        const int fi = static_cast<int>(i);
        auto c = C.aggregated ? C.stage.const_array(fi) : gathered[i].const_array();
        return std::pair{F.phi.box(fi), conslinBody(F.phi.array(fi), c, ratio, 0, 0)};
    });
}

void CompositeMg::vcycle(int r) {
    if (r == 0) {
        smoothRung(0, kBottomSmooth);
        return;
    }
    Rung& F = m_r[static_cast<std::size_t>(r)];
    Rung& C = m_r[static_cast<std::size_t>(r - 1)];
    smoothRung(r, kPreSmooth);
    fillGhostsRung(r);
    applyResidual(r, F.rhs, F.res);
    restrictIntoCoarse(r, F.phi, C.phi);
    MultiFab::Copy(C.sav, C.phi, 0, 0, 1, 0);
    fillGhostsRung(r - 1);
    restrictIntoCoarse(r, F.res, C.res);
    buildCoarseRhs(r);
    vcycle(r - 1);
    prolongAddCorrection(r);
    smoothRung(r, kPostSmooth);
}

void CompositeMg::fmgBootstrap() {
    const int top = numRungs() - 1;
    // Carry the rhs down the whole ladder (covered cells take the finer
    // restriction, uncovered AMR cells keep the user rhs).
    for (int r = top; r >= 1; --r) {
        Rung& C = m_r[static_cast<std::size_t>(r - 1)];
        if (C.amr) MultiFab::Copy(C.rhs, C.rhs0, 0, 0, 1, 0);
        restrictIntoCoarse(r, m_r[static_cast<std::size_t>(r)].rhs, C.rhs);
    }
    smoothRung(0, kBottomSmooth);
    for (int r = 1; r <= top; ++r) {
        fmgInterp(r);
        vcycle(r);
        ++m_stats.vcycles;
    }
    ++m_stats.fmg_cycles;
}

void CompositeMg::averageDownPhi() {
    for (int r = numRungs() - 1; r > m_base; --r) {
        restrictIntoCoarse(r, m_r[static_cast<std::size_t>(r)].phi,
                           m_r[static_cast<std::size_t>(r - 1)].phi);
    }
}

void CompositeMg::zeroCovered(int r, MultiFab& mf) {
    const Rung& C = m_r[static_cast<std::size_t>(r)];
    const Rung& F = m_r[static_cast<std::size_t>(r + 1)];
    auto plan = CopierCache::instance().averageDown(C.ba, F.ba, F.ratio);
    ParallelFor(KernelInfo::streaming("mg_zero_covered", 8.0), plan->items.size(), 1,
                [&](std::size_t t) {
        auto o = mf.array(plan->items[t].dst_fab);
        return std::pair{plan->items[t].dst_box,
                         [=](int ii, int j, int k) { o(ii, j, k) = 0.0; }};
    });
}

Real CompositeMg::compositeResidualNorm() {
    const int top = numRungs() - 1;
    for (int r = m_base; r <= top; ++r) fillGhostsRung(r);
    for (int r = m_base; r <= top; ++r) {
        applyResidual(r,
                      r == top ? m_r[static_cast<std::size_t>(r)].rhs
                               : m_r[static_cast<std::size_t>(r)].rhs0,
                      m_r[static_cast<std::size_t>(r)].res);
    }
    // The composite operator at uncovered coarse cells next to a
    // coarse-fine face replaces the coarse one-sided gradient with the
    // average of the fine-face gradients.
    for (int r = m_base; r < top; ++r) {
        Rung& F = m_r[static_cast<std::size_t>(r + 1)];
        if (F.cf) {
            F.cf->addFluxMismatch(m_r[static_cast<std::size_t>(r)].res, F.phi,
                                  m_r[static_cast<std::size_t>(r)].phi, -1.0);
        }
    }
    Real nrm = 0.0;
    for (int r = m_base; r <= top; ++r) {
        if (r < top) zeroCovered(r, m_r[static_cast<std::size_t>(r)].res);
        nrm = std::max(nrm, m_r[static_cast<std::size_t>(r)].res.norminf(0));
    }
    return nrm;
}

Real CompositeMg::maskedMean(const std::vector<const MultiFab*>& mfs) const {
    Real total = 0.0;
    for (int lev = 0; lev < numAmrLevels(); ++lev) {
        const Rung& R = m_r[static_cast<std::size_t>(m_base + lev)];
        const Real vol = R.geom.cellVolume();
        Real s = 0.0;
        for (std::size_t q = 0; q < R.ba.size(); ++q) {
            for (const Box& b : R.uncovered[q]) {
                s += mfs[static_cast<std::size_t>(lev)]
                         ->fab(static_cast<int>(q))
                         .sum(b, 0);
            }
        }
        total += s * vol;
    }
    return total / m_domain_volume;
}

void CompositeMg::removeMeanRhs() {
    const int top = numRungs() - 1;
    std::vector<const MultiFab*> mfs;
    for (int r = m_base; r <= top; ++r) {
        mfs.push_back(r == top ? &m_r[static_cast<std::size_t>(r)].rhs
                               : &m_r[static_cast<std::size_t>(r)].rhs0);
    }
    const Real mean = maskedMean(mfs);
    for (int r = m_base; r <= top; ++r) {
        if (r == top) {
            m_r[static_cast<std::size_t>(r)].rhs.plus(-mean, 0, 1);
        } else {
            m_r[static_cast<std::size_t>(r)].rhs0.plus(-mean, 0, 1);
        }
    }
}

void CompositeMg::removeMeanPhi() {
    const int top = numRungs() - 1;
    std::vector<const MultiFab*> mfs;
    for (int r = m_base; r <= top; ++r)
        mfs.push_back(&m_r[static_cast<std::size_t>(r)].phi);
    const Real mean = maskedMean(mfs);
    for (int r = m_base; r <= top; ++r)
        m_r[static_cast<std::size_t>(r)].phi.plus(-mean, 0, 1);
}

CompositeMgResult CompositeMg::solve(const std::vector<MultiFab*>& phi,
                                     const std::vector<const MultiFab*>& rhs) {
    TimerRegion timer("mg/solve");
    const int top = numRungs() - 1;
    assert(static_cast<int>(phi.size()) == numAmrLevels() &&
           rhs.size() == phi.size());
    CompositeMgResult result;
    const CompositeMgStats before = m_stats;

    for (int lev = 0; lev < numAmrLevels(); ++lev) {
        const int r = m_base + lev;
        Rung& R = m_r[static_cast<std::size_t>(r)];
        assert(phi[static_cast<std::size_t>(lev)]->nGrow() >= 1);
        if (r == top) {
            MultiFab::Copy(R.rhs, *rhs[static_cast<std::size_t>(lev)], 0, 0,
                           1, 0);
        } else {
            MultiFab::Copy(R.rhs0, *rhs[static_cast<std::size_t>(lev)], 0, 0,
                           1, 0);
        }
        if (m_opt.warm_start) {
            MultiFab::Copy(R.phi, *phi[static_cast<std::size_t>(lev)], 0, 0,
                           1, 0);
        }
    }
    if (!m_opt.warm_start) {
        for (Rung& R : m_r) R.phi.setVal(0.0);
    }
    if (m_singular) removeMeanRhs();

    averageDownPhi();
    result.initial_resnorm = compositeResidualNorm();
    Real rhsnorm = 0.0;
    for (int r = m_base; r <= top; ++r) {
        rhsnorm = std::max(
            rhsnorm, (r == top ? m_r[static_cast<std::size_t>(r)].rhs
                               : m_r[static_cast<std::size_t>(r)].rhs0)
                         .norminf(0));
    }
    const Real target = m_opt.rtol * std::max({result.initial_resnorm, rhsnorm,
                                               Real(1.0e-300)});

    Real res = result.initial_resnorm;
    if (res > target && m_opt.fmg && !m_opt.warm_start) {
        fmgBootstrap();
        if (m_singular) removeMeanPhi();
        averageDownPhi();
        res = compositeResidualNorm();
    }
    int outer = 0;
    while (res > target && outer < m_opt.max_vcycles) {
        vcycle(top);
        ++m_stats.vcycles;
        ++outer;
        if (m_singular) removeMeanPhi();
        averageDownPhi();
        res = compositeResidualNorm();
    }

    for (int lev = 0; lev < numAmrLevels(); ++lev) {
        MultiFab::Copy(*phi[static_cast<std::size_t>(lev)],
                       m_r[static_cast<std::size_t>(m_base + lev)].phi, 0, 0,
                       1, 0);
    }

    result.vcycles = outer;
    result.all_vcycles = static_cast<int>(m_stats.vcycles - before.vcycles);
    result.fmg_cycles = static_cast<int>(m_stats.fmg_cycles - before.fmg_cycles);
    result.sweeps = m_stats.sweeps - before.sweeps;
    result.bottom_replays = m_stats.bottom_replays - before.bottom_replays;
    result.agg_copies = m_stats.agg_copies - before.agg_copies;
    result.agg_bytes = m_stats.agg_bytes - before.agg_bytes;
    result.final_resnorm = res;
    result.converged = res <= target;
    if (events::active()) {
        MgEvent e;
        e.fmg_cycles = result.fmg_cycles;
        e.vcycles = result.all_vcycles;
        e.sweeps = result.sweeps;
        e.agg_copies = result.agg_copies;
        e.agg_bytes = result.agg_bytes;
        events::publish(e);
    }
    return result;
}

void CompositeMg::fillCompositeGhosts(const std::vector<MultiFab*>& phi) {
    assert(static_cast<int>(phi.size()) == numAmrLevels());
    for (int lev = 0; lev < numAmrLevels(); ++lev) {
        Rung& R = m_r[static_cast<std::size_t>(m_base + lev)];
        MultiFab& p = *phi[static_cast<std::size_t>(lev)];
        p.FillBoundary(0, 1, R.geom.periodicity());
        if (R.cf) {
            R.cf->prepare(*phi[static_cast<std::size_t>(lev - 1)]);
            R.cf->interpGhosts(p);
        }
        mgApplyDomainBC(p, R.geom, m_bc);
    }
}

} // namespace exa
