#pragma once

#include "core/real.hpp"
#include "microphysics/linalg.hpp"

#include <cstdint>
#include <vector>

namespace exa {

// A stiff ODE system y' = f(t, y) with an analytic Jacobian, the shape of
// every nuclear-burn integration in the suite.
class OdeSystem {
public:
    virtual ~OdeSystem() = default;
    virtual int size() const = 0;
    virtual void rhs(Real t, const std::vector<Real>& y, std::vector<Real>& f) = 0;
    // J(i,j) = d f_i / d y_j. Default: forward-difference approximation.
    virtual void jacobian(Real t, const std::vector<Real>& y, DenseMatrix& jac);
    // Structural nonzeros of the Jacobian (dense by default).
    virtual std::vector<char> sparsity() const;
};

// Fixed policies, not options: BDF picks its first step from the RHS
// scale (RK starts at 1e-6 of the interval), and its corrector reuses the
// Jacobian/LU across steps (VODE-style) with at most eight Newton
// iterations per stage.
struct OdeOptions {
    Real rtol = 1.0e-8;
    Real atol = 1.0e-12;
    std::int64_t max_steps = 500000;
    bool use_sparse = false; // fixed-pattern sparse LU instead of dense
};

struct OdeStats {
    std::int64_t steps = 0;
    std::int64_t rejected = 0;
    std::int64_t rhs_evals = 0;
    std::int64_t jac_evals = 0;
    std::int64_t lu_factors = 0;
    std::int64_t newton_iters = 0;
    bool success = false;
};

// Weighted RMS norm used for error control: ||v||_wrms with weights
// 1/(rtol*|y| + atol).
Real wrmsNorm(const std::vector<Real>& v, const std::vector<Real>& y, Real rtol,
              Real atol);

} // namespace exa
