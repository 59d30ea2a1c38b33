#pragma once

#include "microphysics/linalg.hpp"
#include "microphysics/ode.hpp"

namespace exa {

// All heap state of one BDF integration: Newton/Jacobian factorizations
// plus every scratch vector of the step loop. Callers that integrate many
// systems of the same size (the per-zone burn loop) hold one of these
// and pass it to every integrate() call, so the integrator allocates
// nothing after the first zone. A workspace is bound to one system
// *shape*: reuse it only across systems with the same size() and (when
// use_sparse is set) the same sparsity pattern — exactly the batch-burn
// case, where every zone integrates the same network.
struct BdfWorkspace {
    // Newton matrix machinery: every Newton system factors through
    // `dense_lu`, or through `sparse_lu` when use_sparse is set.
    DenseMatrix jac;
    DenseMatrix m; // I - gamma h J, rebuilt per refactor
    DenseLU dense_lu;
    SparseLU sparse_lu;
    bool sparse_analyzed = false; // SparseLU::analyze done for this shape
    // Newton LU-reuse state (reset at every integrate() entry).
    bool lu_ready = false;
    Real h_at_factor = 0.0;

    // Step-loop scratch (contents are per-call; only capacity persists).
    std::vector<Real> y_nm1, y_nm2, f, c, y_new, y_pred, err;
    // newtonSolve scratch.
    std::vector<Real> nf, ng;

    void invalidate() { lu_ready = false; }
};

// VODE-style implicit integrator: variable-step BDF with a modified-Newton
// corrector, analytic Jacobians, Jacobian/LU reuse across steps, and
// weighted-RMS error control. This is the C++ replacement for the
// fixed-format Fortran VODE whose computed-goto constructs blocked the
// paper's first OpenACC porting attempts (Section III).
//
// Orders 1 and 2 are implemented (production VODE reaches 5); for the
// strongly stiff, accuracy-limited burns in this suite BDF2 + adaptive
// steps reproduces the cost structure that matters: one LU factor +
// O(N^2) back-substitutions per Newton iteration, with N = nspec + 1.
class BdfIntegrator {
public:
    // Advance y from t0 to t1 in place. `ws` (optional) supplies reusable
    // scratch; results are bit-identical with or without it.
    OdeStats integrate(OdeSystem& sys, std::vector<Real>& y, Real t0, Real t1,
                       const OdeOptions& opt = OdeOptions{},
                       BdfWorkspace* ws = nullptr);
};

// Explicit embedded Runge-Kutta (Cash-Karp 4(5)) with adaptive steps: the
// baseline that demonstrates *why* implicit integration is required — on
// stiff burns its step count explodes with the fastest timescale
// ("otherwise the whole system would be forced to march along at the
// smallest timescale", Section IV-B).
class RkIntegrator {
public:
    OdeStats integrate(OdeSystem& sys, std::vector<Real>& y, Real t0, Real t1,
                       const OdeOptions& opt = OdeOptions{});
};

} // namespace exa
