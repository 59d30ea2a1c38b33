#include "microphysics/bdf.hpp"

#include <algorithm>
#include <cmath>

namespace exa {

Real wrmsNorm(const std::vector<Real>& v, const std::vector<Real>& y, Real rtol,
              Real atol) {
    Real s = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const Real w = 1.0 / (rtol * std::abs(y[i]) + atol);
        s += (v[i] * w) * (v[i] * w);
    }
    return std::sqrt(s / v.size());
}

void OdeSystem::jacobian(Real t, const std::vector<Real>& y, DenseMatrix& jac) {
    const int n = size();
    std::vector<Real> f0(n), f1(n), yp = y;
    rhs(t, y, f0);
    for (int j = 0; j < n; ++j) {
        const Real dy = std::max(std::abs(y[j]) * 1.0e-7, 1.0e-30);
        yp[j] = y[j] + dy;
        rhs(t, yp, f1);
        yp[j] = y[j];
        for (int i = 0; i < n; ++i) jac(i, j) = (f1[i] - f0[i]) / dy;
    }
}

std::vector<char> OdeSystem::sparsity() const {
    return std::vector<char>(static_cast<std::size_t>(size()) * size(), 1);
}

namespace {

// Newton iterations per stage solve before the step is rejected.
constexpr int kMaxNewton = 8;

// Newton solve for the BDF stage equation  y - gamma*h*f(t,y) = c.
// Returns true on convergence; updates y in place. All scratch lives in
// the caller-provided BdfWorkspace.
bool newtonSolve(OdeSystem& sys, std::vector<Real>& y, const std::vector<Real>& c,
                 Real t, Real h, Real gamma, const OdeOptions& opt,
                 BdfWorkspace& ws, OdeStats& stats) {
    const int n = sys.size();
    std::vector<Real>& f = ws.nf;
    std::vector<Real>& g = ws.ng;
    f.resize(n);
    g.resize(n);

    auto refactor = [&]() {
        if (ws.jac.size() != n) ws.jac = DenseMatrix(n);
        sys.jacobian(t, y, ws.jac);
        ++stats.jac_evals;
        ws.m = ws.jac; // capacity-reusing copy
        ws.m.scaleAndAddIdentity(1.0, -gamma * h); // M = I - gamma h J
        const bool ok =
            opt.use_sparse ? ws.sparse_lu.factor(ws.m) : ws.dense_lu.factor(ws.m);
        ++stats.lu_factors;
        ws.lu_ready = ok;
        ws.h_at_factor = h;
        return ok;
    };

    // Reuse the Jacobian/LU from previous steps unless h drifted.
    if (!ws.lu_ready || std::abs(h - ws.h_at_factor) > 0.2 * ws.h_at_factor) {
        if (!refactor()) return false;
    }

    Real prev_norm = -1.0;
    for (int it = 0; it < kMaxNewton; ++it) {
        ++stats.newton_iters;
        sys.rhs(t, y, f);
        ++stats.rhs_evals;
        for (int i = 0; i < n; ++i) g[i] = y[i] - gamma * h * f[i] - c[i];
        const Real gnorm = wrmsNorm(g, y, opt.rtol, opt.atol);
        // Solve M dy = -g.
        for (auto& v : g) v = -v;
        if (opt.use_sparse) {
            ws.sparse_lu.solve(g);
        } else {
            ws.dense_lu.solve(g);
        }
        Real dnorm = wrmsNorm(g, y, opt.rtol, opt.atol);
        for (int i = 0; i < n; ++i) y[i] += g[i];
        if (dnorm < 0.1 || gnorm < 0.01) return true;
        // Diverging with a stale Jacobian: refresh once and continue.
        if (prev_norm >= 0.0 && dnorm > 2.0 * prev_norm) {
            if (it == kMaxNewton - 1 || !refactor()) return false;
        }
        prev_norm = dnorm;
    }
    return false;
}

} // namespace

OdeStats BdfIntegrator::integrate(OdeSystem& sys, std::vector<Real>& y, Real t0,
                                  Real t1, const OdeOptions& opt, BdfWorkspace* wsp) {
    OdeStats stats;
    const int n = sys.size();
    if (t1 <= t0) {
        stats.success = true;
        return stats;
    }

    // Without a caller workspace, fall back to a local one: the original
    // allocate-per-call behavior, bit-identical results.
    BdfWorkspace local;
    BdfWorkspace& ws = wsp != nullptr ? *wsp : local;
    ws.lu_ready = false;
    ws.h_at_factor = 0.0;
    if (opt.use_sparse && (!ws.sparse_analyzed || ws.sparse_lu.size() != n)) {
        ws.sparse_lu.analyze(n, sys.sparsity());
        ws.sparse_analyzed = true;
    }

    // History: y at the most recent accepted times (for BDF2 and for the
    // quadratic extrapolation predictor used in error control). clear()
    // keeps capacity; emptiness doubles as the "no history yet" flag.
    std::vector<Real>& y_nm1 = ws.y_nm1; // y_{n-1}
    std::vector<Real>& y_nm2 = ws.y_nm2; // y_{n-2}
    y_nm1.clear();
    y_nm2.clear();
    Real h_old = 0.0;        // t_n - t_{n-1}
    Real h_old2 = 0.0;       // t_{n-1} - t_{n-2}
    int order = 1;
    int steps_at_order = 0;

    // Initial step size from the RHS scale.
    std::vector<Real>& f = ws.f;
    f.resize(n);
    sys.rhs(t0, y, f);
    ++stats.rhs_evals;
    const Real fn = wrmsNorm(f, y, opt.rtol, opt.atol);
    Real h = std::min(t1 - t0, 0.01 / std::max(fn, 1.0e-8 / (t1 - t0)));

    Real t = t0;
    std::vector<Real>& c = ws.c;
    std::vector<Real>& y_new = ws.y_new;
    std::vector<Real>& y_pred = ws.y_pred;
    std::vector<Real>& err = ws.err;
    c.resize(n);
    y_new.resize(n);
    y_pred.resize(n);
    err.resize(n);

    while (t < t1 && stats.steps < opt.max_steps) {
        h = std::min(h, t1 - t);
        const bool have_hist = !y_nm1.empty() && h_old > 0.0;
        const int p = (order == 2 && have_hist) ? 2 : 1;

        // Stage equation y_new - gamma h f = c, and a predictor by
        // polynomial extrapolation of the history for the error estimate.
        Real gamma;
        if (p == 1) {
            gamma = 1.0;
            c = y;
            if (have_hist) {
                const Real r = h / h_old;
                for (int i = 0; i < n; ++i) {
                    y_pred[i] = y[i] + r * (y[i] - y_nm1[i]);
                }
            } else {
                y_pred = y;
            }
        } else {
            const Real r = h / h_old;
            gamma = (1.0 + r) / (1.0 + 2.0 * r);
            const Real a1 = (1.0 + r) * (1.0 + r) / (1.0 + 2.0 * r);
            const Real a2 = -r * r / (1.0 + 2.0 * r);
            for (int i = 0; i < n; ++i) c[i] = a1 * y[i] + a2 * y_nm1[i];
            if (!y_nm2.empty() && h_old2 > 0.0) {
                // Quadratic extrapolation through (t_{n-2}, t_{n-1}, t_n)
                // evaluated at t_n + h: an O(h^3)-accurate predictor, so
                // the predictor-corrector difference estimates the BDF2
                // truncation error at the right order.
                const Real t2 = -(h_old + h_old2);
                const Real t1 = -h_old;
                const Real L2 = (h - t1) * (h - 0.0) / ((t2 - t1) * t2);
                const Real L1 = (h - t2) * (h - 0.0) / ((t1 - t2) * t1);
                const Real L0 = (h - t2) * (h - t1) / (t2 * t1);
                for (int i = 0; i < n; ++i) {
                    y_pred[i] = L0 * y[i] + L1 * y_nm1[i] + L2 * y_nm2[i];
                }
            } else {
                for (int i = 0; i < n; ++i) y_pred[i] = y[i] + r * (y[i] - y_nm1[i]);
            }
        }

        y_new = y_pred; // warm start
        const bool converged =
            newtonSolve(sys, y_new, c, t + h, h, gamma, opt, ws, stats);
        if (!converged) {
            ++stats.rejected;
            h *= 0.25;
            ws.invalidate();
            order = 1;
            steps_at_order = 0;
            if (h < 1.0e-14 * (t1 - t0)) break; // hopeless
            continue;
        }

        // Error estimate from predictor-corrector difference.
        for (int i = 0; i < n; ++i) err[i] = y_new[i] - y_pred[i];
        const Real C = (p == 1) ? 0.5 : 0.25;
        const Real enorm = C * wrmsNorm(err, y_new, opt.rtol, opt.atol);

        if (enorm > 1.0 && have_hist) {
            ++stats.rejected;
            const Real shrink =
                std::clamp(0.9 * std::pow(enorm, -1.0 / (p + 1)), 0.1, 0.9);
            h *= shrink;
            if (p == 2) {
                order = 1;
                steps_at_order = 0;
            }
            continue;
        }

        // Accept.
        y_nm2 = y_nm1;
        h_old2 = h_old;
        y_nm1 = y;
        y = y_new;
        h_old = h;
        t += h;
        ++stats.steps;
        ++steps_at_order;
        if (order == 1 && steps_at_order >= 3) {
            order = 2;
            steps_at_order = 0;
        }
        const Real grow = std::clamp(
            0.9 * std::pow(std::max(enorm, 1.0e-10), -1.0 / (p + 1)), 0.5, 4.0);
        h *= grow;
    }

    stats.success = t >= t1;
    return stats;
}

OdeStats RkIntegrator::integrate(OdeSystem& sys, std::vector<Real>& y, Real t0,
                                 Real t1, const OdeOptions& opt) {
    OdeStats stats;
    const int n = sys.size();
    if (t1 <= t0) {
        stats.success = true;
        return stats;
    }

    // Cash-Karp 4(5) tableau.
    static const Real a2 = 0.2, a3 = 0.3, a4 = 0.6, a5 = 1.0, a6 = 0.875;
    static const Real b21 = 0.2;
    static const Real b31 = 3.0 / 40.0, b32 = 9.0 / 40.0;
    static const Real b41 = 0.3, b42 = -0.9, b43 = 1.2;
    static const Real b51 = -11.0 / 54.0, b52 = 2.5, b53 = -70.0 / 27.0,
                      b54 = 35.0 / 27.0;
    static const Real b61 = 1631.0 / 55296.0, b62 = 175.0 / 512.0,
                      b63 = 575.0 / 13824.0, b64 = 44275.0 / 110592.0,
                      b65 = 253.0 / 4096.0;
    static const Real c1 = 37.0 / 378.0, c3 = 250.0 / 621.0, c4 = 125.0 / 594.0,
                      c6 = 512.0 / 1771.0;
    static const Real d1 = c1 - 2825.0 / 27648.0, d3 = c3 - 18575.0 / 48384.0,
                      d4 = c4 - 13525.0 / 55296.0, d5 = -277.0 / 14336.0,
                      d6 = c6 - 0.25;

    std::vector<Real> k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), yt(n), err(n),
        y_new(n);

    Real t = t0;
    Real h = (t1 - t0) * 1.0e-6;
    while (t < t1 && stats.steps < opt.max_steps) {
        h = std::min(h, t1 - t);
        sys.rhs(t, y, k1);
        for (int i = 0; i < n; ++i) yt[i] = y[i] + h * b21 * k1[i];
        sys.rhs(t + a2 * h, yt, k2);
        for (int i = 0; i < n; ++i) yt[i] = y[i] + h * (b31 * k1[i] + b32 * k2[i]);
        sys.rhs(t + a3 * h, yt, k3);
        for (int i = 0; i < n; ++i)
            yt[i] = y[i] + h * (b41 * k1[i] + b42 * k2[i] + b43 * k3[i]);
        sys.rhs(t + a4 * h, yt, k4);
        for (int i = 0; i < n; ++i)
            yt[i] = y[i] + h * (b51 * k1[i] + b52 * k2[i] + b53 * k3[i] + b54 * k4[i]);
        sys.rhs(t + a5 * h, yt, k5);
        for (int i = 0; i < n; ++i)
            yt[i] = y[i] + h * (b61 * k1[i] + b62 * k2[i] + b63 * k3[i] +
                                b64 * k4[i] + b65 * k5[i]);
        sys.rhs(t + a6 * h, yt, k6);
        stats.rhs_evals += 6;

        for (int i = 0; i < n; ++i) {
            y_new[i] = y[i] + h * (c1 * k1[i] + c3 * k3[i] + c4 * k4[i] + c6 * k6[i]);
            err[i] = h * (d1 * k1[i] + d3 * k3[i] + d4 * k4[i] + d5 * k5[i] +
                          d6 * k6[i]);
        }
        const Real enorm = wrmsNorm(err, y_new, opt.rtol, opt.atol);
        if (enorm <= 1.0) {
            t += h;
            y = y_new;
            ++stats.steps;
            h *= std::clamp(0.9 * std::pow(std::max(enorm, 1.0e-12), -0.2), 0.5, 5.0);
        } else {
            ++stats.rejected;
            h *= std::clamp(0.9 * std::pow(enorm, -0.25), 0.1, 0.9);
            if (h < 1.0e-16 * (t1 - t0)) break;
        }
    }
    stats.success = t >= t1;
    return stats;
}

} // namespace exa
