#pragma once

// Composite-grid full multigrid (FMG) for the cell-centered Poisson
// problem across an AMR hierarchy — the role AMReX's MLMG plays in
// Castro's self-gravity solve and in the MAESTRO projection, the globally
// coupled algorithm the paper (SC 2020, §V) identifies as the exascale
// scaling gate. It is the only Poisson solver in the tree: single-level
// callers pass a one-level hierarchy. The AMR levels
// form the fine end of one MG ladder; below AMR level 0 the ladder
// continues by geometric full coarsening. The scheme is FAS (full
// approximation scheme): every rung carries a full solution approximation,
// partially refined rungs get a deferred-correction rhs with reflux-style
// flux-mismatch corrections at coarse-fine faces, and fine-rung boundary
// conditions come from quadratic coarse-fine interpolation (MgCfBoundary).
//
// Two performance layers ride inside:
//  - Coarse-level rank aggregation. Few-zone coarse grids are
//    latency-bound in the alpha-beta model, so geometric rungs below a
//    zone threshold are laid out on fewer ranks (cost-weighted knapsack
//    mapping); transfers stage through a MultiFab on the finer rung's
//    distribution so the rank transition is one cached ParallelCopy plan.
//  - Split-phase smoother halos. When comm::asyncHalo() is on, every
//    red-black half-sweep posts its ghost exchange, smooths fab interiors
//    while the traffic is in flight, then finishes and sweeps the shells
//    (bit-identical to the fused path: a half-sweep writes one color and
//    reads only the other).
//
// Solves are cold by default (initial guess 0, FMG bootstrap, then
// V-cycles to rtol): the result is a pure function of the rhs, which is
// what makes gravity bit-identical across regrids, rebalances, and
// rank-failure recovery replay. Warm solves (the MAESTRO projection) start
// from the caller's phi and skip the FMG bootstrap; that phi is then part
// of the trajectory and must be checkpointed with the state.

#include "mesh/interp.hpp"
#include "mesh/multifab.hpp"
#include "solvers/mg/mg_boundary.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace exa {

struct CompositeMgOptions {
    int pre_smooth = 2;
    int post_smooth = 2;
    int bottom_smooth = 40;
    int max_vcycles = 60;
    Real rtol = 1.0e-10;    // relative composite-residual target
    bool fmg = true;        // FMG bootstrap before the V-cycle loop
    bool warm_start = false; // start from the caller's phi, no FMG bootstrap
    int min_level_side = 2; // stop geometric coarsening at this side length
    int max_grid_size = 32;
    int nranks = 1;
    // Aggregate a geometric rung onto ceil(zones / agg_zones_per_rank)
    // ranks when that is fewer than nranks. 0 disables via the flag.
    bool aggregate_coarse = true;
    std::int64_t agg_zones_per_rank = 4096;
};

struct CompositeMgResult {
    int vcycles = 0;     // outer V-cycles (after any FMG bootstrap)
    int all_vcycles = 0; // including the per-stage cycles inside FMG
    int fmg_cycles = 0;
    std::int64_t sweeps = 0;
    std::int64_t agg_copies = 0; // staged coarse-aggregation ParallelCopies
    std::int64_t agg_bytes = 0;  // their off-rank payload
    Real initial_resnorm = 0.0;
    Real final_resnorm = 0.0;
    bool converged = false;
};

// Lifetime totals (monotone; per-solve deltas land in CompositeMgResult).
struct CompositeMgStats {
    std::int64_t vcycles = 0;
    std::int64_t fmg_cycles = 0;
    std::int64_t sweeps = 0;
    std::int64_t agg_copies = 0;
    std::int64_t agg_bytes = 0;
};

class CompositeMg {
public:
    // geoms/bas/dms describe the AMR hierarchy, index 0 = coarsest AMR
    // level (Castro ordering); ref_ratio is the uniform fine/coarse
    // ratio between consecutive AMR levels. Layouts are captured by value:
    // after a regrid, build a new CompositeMg.
    CompositeMg(std::vector<Geometry> geoms, std::vector<BoxArray> bas,
                std::vector<DistributionMapping> dms, int ref_ratio, MgBC bc,
                const CompositeMgOptions& opt = {});

    // Solve Laplacian(phi) = rhs on the composite hierarchy. phi[lev] /
    // rhs[lev] live on the AMR level layouts passed at construction;
    // phi needs >= 1 ghost zone. On return the levels are consistent
    // (coarse = average of fine on covered regions).
    CompositeMgResult solve(const std::vector<MultiFab*>& phi,
                            const std::vector<const MultiFab*>& rhs);

    // Fill ghost zones of per-level fields on the AMR layouts the solver
    // was built with: same-level exchange, coarse-fine interpolation, and
    // the physical BC — what a gradient stencil needs after a solve.
    void fillCompositeGhosts(const std::vector<MultiFab*>& phi);

    int numRungs() const { return static_cast<int>(m_r.size()); }
    int numAmrLevels() const { return numRungs() - m_base; }
    // Geometric rungs living on a reduced rank set.
    int aggregatedRungs() const;
    const CompositeMgStats& stats() const { return m_stats; }

private:
    struct Rung {
        Geometry geom;
        BoxArray ba;
        DistributionMapping dm;
        int ratio = 2;    // refinement ratio to the rung below
        bool amr = false; // mirrors an AMR level's own layout
        bool aggregated = false;
        bool covers_coarse = true; // coarsen(ba) covers the rung below
        MultiFab phi;  // solution approximation (1 ghost zone)
        MultiFab rhs;  // cycle rhs (FAS deferred correction below the top)
        MultiFab rhs0; // user rhs (AMR rungs below the top only)
        MultiFab res;  // residual / correction scratch
        MultiFab sav;  // pre-cycle coarse phi (FAS correction base)
        // Aggregated rungs: staging fab on (coarsen(finer ba), finer dm)
        // so fine<->coarse transfers cross ranks as one ParallelCopy.
        MultiFab stage;
        std::int64_t stage_restrict_bytes = 0;
        std::int64_t stage_prolong_bytes = 0;
        std::unique_ptr<MgCfBoundary> cf; // interface to the rung below
        // Valid region not covered by the finer rung (per fab), for
        // masked means and the composite residual norm.
        std::vector<std::vector<Box>> uncovered;
    };

    void fillGhostsRung(int r);
    void smoothRung(int r, int sweeps);
    // out = Laplacian(phi) on rung r; ghosts of phi must be current.
    void applyOpNoFill(int r, const MultiFab& phi, MultiFab& out);
    // res = rhs - Laplacian(phi) on rung r; ghosts must be current.
    void applyResidual(int r, const MultiFab& rhs, MultiFab& res);
    // Average rung r's `fine` down into rung r-1's `crse` (covered cells
    // only), staging through the aggregation fab when rung r-1 lives on a
    // reduced rank set.
    void restrictIntoCoarse(int r, const MultiFab& fine, MultiFab& crse);
    void buildCoarseRhs(int r);
    void prolongAddCorrection(int r);
    void fmgInterp(int r);
    void vcycle(int r);
    void fmgBootstrap();
    void averageDownPhi();
    Real compositeResidualNorm();
    void zeroCovered(int r, MultiFab& mf);
    Real maskedMean(const std::vector<const MultiFab*>& mfs) const;
    void removeMeanRhs();
    void removeMeanPhi();

    MgBC m_bc;
    CompositeMgOptions m_opt;
    int m_base = 0; // rung index of AMR level 0
    bool m_singular = false;
    Real m_domain_volume = 1.0;
    std::vector<Rung> m_r;
    CompositeMgStats m_stats;
};

} // namespace exa
