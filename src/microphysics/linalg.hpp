#pragma once

#include "core/real.hpp"

#include <cstdint>
#include <vector>

namespace exa {

// Small dense matrices for reaction-network Jacobians. The linear system
// in an implicit burn is (N+1)x(N+1) where N is the number of isotopes —
// the paper's "the size of the matrix ... is approximately N^2" cost
// discussion. Row-major storage.
class DenseMatrix {
public:
    DenseMatrix() = default;
    explicit DenseMatrix(int n) : m_n(n), m_a(static_cast<std::size_t>(n) * n, 0.0) {}

    int size() const { return m_n; }
    Real& operator()(int i, int j) { return m_a[static_cast<std::size_t>(i) * m_n + j]; }
    Real operator()(int i, int j) const {
        return m_a[static_cast<std::size_t>(i) * m_n + j];
    }
    void setZero() { std::fill(m_a.begin(), m_a.end(), 0.0); }

    // this = alpha * I + beta * this (forming the Newton matrix).
    void scaleAndAddIdentity(Real alpha, Real beta);

    const std::vector<Real>& data() const { return m_a; }

private:
    int m_n = 0;
    std::vector<Real> m_a;
};

// LU factorization with partial pivoting, factored in place. Returns
// false on (numerical) singularity. The input is copied into member
// storage (reusing its capacity), so repeated factorizations of
// same-sized matrices — the per-Newton-refactor pattern of the burn —
// allocate nothing after the first call.
class DenseLU {
public:
    bool factor(const DenseMatrix& a);
    void solve(std::vector<Real>& b) const;
    int size() const { return m_lu.size(); }

private:
    DenseMatrix m_lu;
    std::vector<int> m_piv;
};

// Fixed-pattern sparse LU (no pivoting), the paper's future-work
// optimization implemented: "We know what the sparsity pattern is for
// each combination of isotopes, and that pattern does not change over
// time. This allows us to use an optimal sparse representation."
//
// The symbolic phase runs Gaussian elimination on the boolean pattern
// once, recording fill-in; every numeric factorization then touches only
// the recorded nonzeros. Results match DenseLU (without pivoting) to
// round-off; reaction-network Newton matrices I - h*gamma*J are strongly
// diagonally dominated by the identity, which is what makes no-pivoting
// safe in practice (and is why the production implementation can do the
// same).
class SparseLU {
public:
    // pattern[i*n+j] != 0 marks a structural nonzero of the matrix. A
    // degree-ascending symmetric permutation is applied before the
    // symbolic elimination so high-degree rows (he4 and T in an alpha
    // chain, which touch everything) are eliminated last, keeping fill-in
    // small.
    void analyze(int n, const std::vector<char>& pattern);

    bool factor(const DenseMatrix& a);
    void solve(std::vector<Real>& b) const;

    int size() const { return m_n; }
    // Structural nonzeros of the input pattern (before fill-in).
    std::int64_t numNonzeros() const { return m_raw_nnz; }
    // Nonzeros of the factorization (after symbolic fill-in).
    std::int64_t numFactorNonzeros() const { return m_nnz; }
    // Fraction of the dense matrix that is structurally zero (the paper
    // quotes ~40% empty for its 13-isotope network).
    double emptyFraction() const {
        return 1.0 - static_cast<double>(m_raw_nnz) / (static_cast<double>(m_n) * m_n);
    }
    // Floating-point work per factorization, for the ablation bench.
    std::int64_t factorOps() const { return m_factor_ops; }

private:
    int m_n = 0;
    std::int64_t m_nnz = 0;
    std::int64_t m_raw_nnz = 0;
    std::int64_t m_factor_ops = 0;
    // Fill-reducing symmetric permutation: internal index -> user index.
    std::vector<int> m_perm;
    // Pattern after symbolic fill-in, row-major; values stored densely
    // indexed but only pattern entries are read/written.
    std::vector<char> m_pattern;
    std::vector<Real> m_lu;
    // Permuted-solve scratch; a member so repeated solves (one per Newton
    // iteration per zone in a burn) do not allocate.
    mutable std::vector<Real> m_x;
    // For each pivot column k, the rows i>k with (i,k) nonzero.
    std::vector<std::vector<int>> m_rows_below;
    // For each row i, sorted nonzero columns (split at the diagonal).
    std::vector<std::vector<int>> m_cols_in_row;
};

} // namespace exa
