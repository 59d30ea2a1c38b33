#include "microphysics/linalg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace exa {

void DenseMatrix::scaleAndAddIdentity(Real alpha, Real beta) {
    for (auto& v : m_a) v *= beta;
    for (int i = 0; i < m_n; ++i) (*this)(i, i) += alpha;
}

bool DenseLU::factor(const DenseMatrix& a) {
    const int n = a.size();
    m_lu = a; // copy-assign reuses capacity for same-sized refactors
    m_piv.resize(n);
    DenseMatrix& lu = m_lu;
    for (int k = 0; k < n; ++k) {
        // Partial pivoting.
        int p = k;
        Real big = std::abs(lu(k, k));
        for (int i = k + 1; i < n; ++i) {
            if (std::abs(lu(i, k)) > big) {
                big = std::abs(lu(i, k));
                p = i;
            }
        }
        if (big == 0.0) return false;
        m_piv[k] = p;
        // Swap only the trailing columns (LINPACK convention): the stored
        // multipliers stay with their original rows, and solve() applies
        // the interchanges interleaved with forward elimination.
        if (p != k) {
            for (int j = k; j < n; ++j) std::swap(lu(k, j), lu(p, j));
        }
        const Real inv = 1.0 / lu(k, k);
        for (int i = k + 1; i < n; ++i) {
            const Real l = lu(i, k) * inv;
            lu(i, k) = l;
            for (int j = k + 1; j < n; ++j) lu(i, j) -= l * lu(k, j);
        }
    }
    return true;
}

void DenseLU::solve(std::vector<Real>& b) const {
    const int n = m_lu.size();
    assert(static_cast<int>(b.size()) == n);
    for (int k = 0; k < n; ++k) {
        std::swap(b[k], b[m_piv[k]]);
        for (int i = k + 1; i < n; ++i) b[i] -= m_lu(i, k) * b[k];
    }
    for (int i = n - 1; i >= 0; --i) {
        for (int j = i + 1; j < n; ++j) b[i] -= m_lu(i, j) * b[j];
        b[i] /= m_lu(i, i);
    }
}

void SparseLU::analyze(int n, const std::vector<char>& pattern) {
    assert(static_cast<int>(pattern.size()) == n * n);
    m_n = n;

    // Count raw nonzeros (with the mandatory diagonal).
    std::vector<char> raw = pattern;
    for (int i = 0; i < n; ++i) raw[static_cast<std::size_t>(i) * n + i] = 1;
    m_raw_nnz = 0;
    for (char c : raw) m_raw_nnz += (c != 0);

    // Fill-reducing ordering: eliminate low-degree rows first so the dense
    // rows (he4, temperature) come last and cause no cascading fill.
    std::vector<int> degree(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            degree[i] += (raw[static_cast<std::size_t>(i) * n + j] != 0) +
                         (raw[static_cast<std::size_t>(j) * n + i] != 0);
        }
    }
    m_perm.resize(n);
    for (int i = 0; i < n; ++i) m_perm[i] = i;
    std::stable_sort(m_perm.begin(), m_perm.end(),
                     [&](int a, int b) { return degree[a] < degree[b]; });

    // Permuted pattern B(i,j) = raw(perm[i], perm[j]).
    m_pattern.assign(static_cast<std::size_t>(n) * n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            m_pattern[static_cast<std::size_t>(i) * n + j] =
                raw[static_cast<std::size_t>(m_perm[i]) * n + m_perm[j]];
        }
    }
    // Symbolic Gaussian elimination: eliminating column k adds fill at
    // (i,j) whenever (i,k) and (k,j) are nonzero.
    for (int k = 0; k < n; ++k) {
        for (int i = k + 1; i < n; ++i) {
            if (!m_pattern[static_cast<std::size_t>(i) * n + k]) continue;
            for (int j = k + 1; j < n; ++j) {
                if (m_pattern[static_cast<std::size_t>(k) * n + j]) {
                    m_pattern[static_cast<std::size_t>(i) * n + j] = 1;
                }
            }
        }
    }
    m_nnz = 0;
    m_rows_below.assign(n, {});
    m_cols_in_row.assign(n, {});
    m_factor_ops = 0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (m_pattern[static_cast<std::size_t>(i) * n + j]) {
                ++m_nnz;
                m_cols_in_row[i].push_back(j);
            }
        }
    }
    for (int k = 0; k < n; ++k) {
        for (int i = k + 1; i < n; ++i) {
            if (m_pattern[static_cast<std::size_t>(i) * n + k]) {
                m_rows_below[k].push_back(i);
                // One divide plus a multiply-add per nonzero right of k.
                for (int j : m_cols_in_row[k]) {
                    if (j > k) ++m_factor_ops;
                }
                ++m_factor_ops;
            }
        }
    }
    m_lu.assign(static_cast<std::size_t>(n) * n, 0.0);
}

bool SparseLU::factor(const DenseMatrix& a) {
    const int n = m_n;
    assert(a.size() == n);
    // Load only pattern entries (values off-pattern must be zero),
    // applying the fill-reducing permutation.
    for (int i = 0; i < n; ++i) {
        for (int j : m_cols_in_row[i]) {
            m_lu[static_cast<std::size_t>(i) * n + j] = a(m_perm[i], m_perm[j]);
        }
    }
    for (int k = 0; k < n; ++k) {
        const Real piv = m_lu[static_cast<std::size_t>(k) * n + k];
        if (piv == 0.0) return false;
        const Real inv = 1.0 / piv;
        for (int i : m_rows_below[k]) {
            Real& lik = m_lu[static_cast<std::size_t>(i) * n + k];
            lik *= inv;
            const Real l = lik;
            for (int j : m_cols_in_row[k]) {
                if (j > k) {
                    m_lu[static_cast<std::size_t>(i) * n + j] -=
                        l * m_lu[static_cast<std::size_t>(k) * n + j];
                }
            }
        }
    }
    return true;
}

void SparseLU::solve(std::vector<Real>& b) const {
    const int n = m_n;
    assert(static_cast<int>(b.size()) == n);
    std::vector<Real>& x = m_x; // member scratch: no per-solve allocation
    x.resize(n);
    for (int i = 0; i < n; ++i) x[i] = b[m_perm[i]];
    for (int k = 0; k < n; ++k) {
        for (int i : m_rows_below[k]) {
            x[i] -= m_lu[static_cast<std::size_t>(i) * n + k] * x[k];
        }
    }
    for (int i = n - 1; i >= 0; --i) {
        for (int j : m_cols_in_row[i]) {
            if (j > i) x[i] -= m_lu[static_cast<std::size_t>(i) * n + j] * x[j];
        }
        x[i] /= m_lu[static_cast<std::size_t>(i) * n + i];
    }
    for (int i = 0; i < n; ++i) b[m_perm[i]] = x[i];
}

} // namespace exa
