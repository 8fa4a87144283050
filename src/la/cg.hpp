#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "blaslite/blas.hpp"

/// \file cg.hpp
/// Diagonally preconditioned conjugate gradient.
///
/// "Instead of direct solvers, a diagonally preconditioned conjugate gradient
/// iterative solver is predominantly used" in the NekTar-ALE simulations
/// (paper §4.2.2).  The operator and the parallel reduction are injected as
/// plain callables (no type erasure), so the same driver runs serially and
/// under the simulated MPI runtime with gather-scatter assembly.
namespace la {

struct CgResult {
    std::size_t iterations = 0;    ///< iterations actually performed
    double residual_norm = 0.0;    ///< final ||r||_2
    bool converged = false;
};

struct CgOptions {
    std::size_t max_iterations = 1000;
    double tolerance = 1e-10;      ///< absolute tolerance on ||r||_2
};

/// The serial reduction: every rank-local sum is already global.
struct LocalReduce {
    void operator()(std::span<double>) const noexcept {}
};

/// sum_i w_i a_i b_i, or a . b when `w` is empty.
[[nodiscard]] double weighted_dot(std::span<const double> w, std::span<const double> a,
                                  std::span<const double> b) noexcept;

/// Solves A x = b with Jacobi (diagonal) preconditioning.
///
/// `apply(in, out)` computes out = A in; `inv_diag` holds 1/diag(A); x holds
/// the initial guess on entry.  Distributed callers hold shared dofs on
/// several ranks: `weights` then scales each entry's dot-product share
/// (1/multiplicity; empty = all ones) and `reduce(v)` sums a few doubles over
/// every rank in place.  A solve of k iterations issues 1 + 2k reductions:
/// r.z and r.r fused into one two-double reduce up front and after every
/// update, plus p.Ap once per iteration.  Stops when ||r||_2 <= tolerance,
/// after max_iterations, or on p.Ap <= 0 (lost positive definiteness);
/// only the first sets `converged`.  The four work vectors are allocated once
/// per call, never per iteration.
template <class Apply, class Reduce = LocalReduce>
CgResult pcg(Apply&& apply, std::span<const double> inv_diag, std::span<const double> b,
             std::span<double> x, const CgOptions& opts = {},
             std::span<const double> weights = {}, Reduce&& reduce = {}) {
    const std::size_t n = b.size();
    assert(x.size() == n && inv_diag.size() == n && (weights.empty() || weights.size() == n));
    std::vector<double> r(n), z(n), p(n), ap(n);
    double sums[2];
    // z = D^{-1} r, then one reduce for (r.z, r.r).
    const auto precondition = [&] {
        blaslite::dvmul(r, inv_diag, z);
        sums[0] = weighted_dot(weights, r, z);
        sums[1] = weighted_dot(weights, r, r);
        reduce(std::span<double>(sums, 2));
        return std::sqrt(std::max(0.0, sums[1]));
    };

    apply(std::span<const double>(x), std::span<double>(ap));
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    CgResult res;
    res.residual_norm = precondition();
    double rz = sums[0];
    if (res.residual_norm <= opts.tolerance) {
        res.converged = true;
        return res;
    }
    blaslite::dcopy(z, p);

    for (std::size_t it = 0; it < opts.max_iterations; ++it) {
        apply(std::span<const double>(p), std::span<double>(ap));
        sums[0] = weighted_dot(weights, p, ap);
        reduce(std::span<double>(sums, 1));
        const double pap = sums[0];
        if (pap <= 0.0) break; // lost positive definiteness
        const double alpha = rz / pap;
        blaslite::daxpy(alpha, p, x);
        blaslite::daxpy(-alpha, ap, r);
        res.iterations = it + 1;
        res.residual_norm = precondition();
        if (res.residual_norm <= opts.tolerance) {
            res.converged = true;
            return res;
        }
        const double beta = sums[0] / rz;
        rz = sums[0];
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return res;
}

} // namespace la
