#pragma once

#include "castro/driver.hpp"
#include "castro/react.hpp"
#include "maestro/base_state.hpp"
#include "mesh/phys_bc.hpp"
#include "mesh/rebalance/rebalancer.hpp"
#include "mesh/step_guard.hpp"
#include "solvers/mg/composite_mg.hpp"

#include <memory>

namespace exa::maestro {

// Component layout of the MAESTRO-mini state: cell-centered velocity,
// temperature, and mass fractions. Density is *derived* from the EOS at
// the base-state pressure p0(z) — the defining low Mach number
// constraint: acoustics are filtered, and the timestep is set by |U|, not
// |U| + cs ("the former ... can take very large timesteps", Section II).
struct MaestroLayout {
    explicit MaestroLayout(int nspec_in) : nspec(nspec_in) {}
    int nspec;
    static constexpr int QU = 0;
    static constexpr int QV = 1;
    static constexpr int QW = 2; // vertical (z) velocity
    static constexpr int QT = 3;
    static constexpr int QFS = 4;
    int ncomp() const { return QFS + nspec; }
};

struct MaestroOptions {
    Real cfl = 0.5;
    // The burn: MAESTRO burns through the same grid driver as Castro
    // (castro::burnGrid), so every field applies, the batch shape too.
    castro::ReactOptions react;
    bool do_react = true;
    // Step retry (StepGuard) around each step. The density is EOS-derived,
    // so the validator checks finiteness, T > 0, species sums, and burn
    // failures.
    StepGuardOptions guard;
    // Cost-driven load balancing (burn-dominated boxes migrate to a
    // cost-weighted mapping). Off by default.
    RebalanceOptions rebalance;
};

// The low Mach number solver: advection (MC-limited upwind), buoyancy
// against the hydrostatic base state, nuclear reactions, and an
// approximate cell-centered projection (multigrid Poisson solve — the
// globally coupled step whose communication dominates the Fig. 3 weak
// scaling), every step. The projection runs on its own layout — the domain
// chopped at the solver's max_grid_size on one rank — not on the state's:
// phi and divu are copied in, phi is copied back out.
class Maestro final : public Driver {
public:
    // Ghost width of the state: the advection stencil reads +-2 zones
    // (face upwinding one zone out, MC slopes one further).
    static constexpr int kAdvectGhost = 2;

    Maestro(const Geometry& geom, const BoxArray& ba, const DistributionMapping& dm,
            const ReactionNetwork& net, const Eos& eos, const BaseState& base,
            const MaestroOptions& opt);

    MultiFab& state() { return m_state; }
    const MultiFab& state() const { return m_state; }
    const Geometry& geom() const { return m_geom; }
    const BaseState& base() const { return m_base; }

    // Initialize T and X per zone (velocity starts at rest).
    using InitFn = std::function<void(Real x, Real y, Real z, Real& T,
                                      std::vector<Real>& X)>;
    void initialize(const InitFn& f);

    // Advective + buoyancy timestep (no sound speed!).
    Real estimateDt() const override;

    std::vector<const MultiFab*> levelStates() const override { return {&m_state}; }
    // "state", "phi" and "divu": phi seeds the next projection solve (warm
    // start) and divu is its last divergence field, so both belong to the
    // trajectory. Checkpoint, retry snapshot and rebalance all move these.
    std::vector<CheckpointField> checkpointFields() override {
        return {{&m_state, m_geom, "state"},
                {&m_phi, m_geom, "phi"},
                {&m_divu, m_geom, "divu"}};
    }

    // The projection companions (see checkpointFields()).
    MultiFab& phi() { return m_phi; }
    MultiFab& divu() { return m_divu; }

    // Load-balancer access (cost monitor, decision stats).
    Rebalancer& rebalancer() { return m_rebalancer; }
    const Rebalancer& rebalancer() const { return m_rebalancer; }

    // EOS density at the base-state pressure for (k, T, X).
    Real rhoOf(int kzone, Real T, const Real* X) const;

    // Diagnostics.
    Real maxAbsDivergence();     // max |div U| over the domain
    Real maxTemperature() const { return m_state.max(MaestroLayout::QT); }
    // z centroid of the positive temperature perturbation (bubble height).
    Real bubbleHeight() const;
    // V-cycles used by the last projection solve.
    int lastProjectionVcycles() const { return m_last_vcycles; }

    void project(); // public for tests

protected:
    // The step (Driver::step): each substep advects, applies buoyancy,
    // reacts and projects. The guard's snapshot is checkpointFields(), so
    // a rollback restores phi and divu with the state.
    BurnGridStats advance(Real dt, int nsub) override;
    ValidationReport validate(const BurnGridStats& burn) const override;
    // Rewind the zones that went non-finite or T <= 0 to their pre-step
    // values.
    void repair(const StateSnapshot& snap) override;
    // Rebalance: m_state, m_phi, and m_divu migrate together.
    void postStep() override;

private:
    void advect(Real dt);
    void buoyancy(Real dt);
    BurnGridStats react(Real dt);
    void fillGhosts(MultiFab& s);
    // The physical-boundary half of fillGhosts; the split-phase advect
    // runs it after the halo delivery.
    void applyPhysBC(MultiFab& s);

    Geometry m_geom;
    const ReactionNetwork& m_net;
    Eos m_eos;
    BaseState m_base;
    MaestroOptions m_opt;
    MaestroLayout m_layout;
    MultiFab m_state;
    MultiFab m_phi, m_divu;
    // Projection solver (warm-started one-rung CompositeMg, Neumann) and
    // its phi/rhs on the projection layout.
    std::unique_ptr<CompositeMg> m_mg;
    MultiFab m_mg_phi, m_mg_rhs;
    Rebalancer m_rebalancer;
    int m_last_vcycles = 0;
};

// The Section IV-B reacting bubble: a hot spherical perturbation in a
// plane-parallel WD-interior atmosphere, burning carbon and rising
// buoyantly. N = 2 reacting nuclei, as in the paper.
//
// The params struct IS the problem config: build() is the canonical
// entry point, and the ensemble layer's ScenarioRegistry constructs
// these by name ("bubble") from a generic key=value ScenarioConfig.
struct BubbleParams {
    int ncell = 32;
    int max_grid_size = 16;
    int nranks = 1;
    Real domain_width = 5.0e7;   // cm
    Real rho_base = 2.6e9;       // g/cc at the bottom (WD interior)
    Real T_base = 6.0e8;         // K
    Real T_bubble = 9.0e8;       // K perturbation peak
    Real bubble_radius_frac = 0.1;
    Real bubble_height_frac = 0.35;
    Real gravity = -1.5e10;      // cm/s^2
    bool do_react = true;
    StepGuardOptions guard;      // step retry (off by default)
    RebalanceOptions rebalance;  // cost-driven load balancing (off by default)

    // Build a low-Mach Maestro instance initialized with the bubble.
    std::unique_ptr<Maestro> build(const ReactionNetwork& net) const;
};

} // namespace exa::maestro
