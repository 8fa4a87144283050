#include "la/banded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "blaslite/blas.hpp"
#include "blaslite/counters.hpp"

namespace la {

void SymBandedMatrix::add(std::size_t i, std::size_t j, double v) noexcept {
    if (i < j) std::swap(i, j);
    const std::size_t d = i - j;
    assert(d <= kd_);
    band(d, j) += v;
}

double SymBandedMatrix::at(std::size_t i, std::size_t j) const noexcept {
    if (i < j) std::swap(i, j);
    const std::size_t d = i - j;
    if (d > kd_) return 0.0;
    return band(d, j);
}

void SymBandedMatrix::matvec(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) y[i] = band(0, i) * x[i];
    std::size_t flops = n_;
    for (std::size_t j = 0; j < n_; ++j) {
        const double* c = &band_[j * (kd_ + 1)];
        const std::size_t dmax = std::min(kd_, n_ - 1 - j);
        for (std::size_t d = 1; d <= dmax; ++d) {
            y[j + d] += c[d] * x[j];
            y[j] += c[d] * x[j + d];
        }
        flops += 4 * dmax;
    }
    blaslite::detail::charge(flops, (kd_ + 2) * n_ * sizeof(double), n_ * sizeof(double));
}

DenseMatrix SymBandedMatrix::to_dense() const {
    DenseMatrix a(n_, n_);
    for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t d = 0; d <= kd_ && j + d < n_; ++d) {
            a(j + d, j) = band(d, j);
            a(j, j + d) = band(d, j);
        }
    }
    return a;
}

bool BandedCholesky::factor(const SymBandedMatrix& a) {
    n_ = a.n_;
    kd_ = a.kd_;
    band_ = a.band_;
    return factor_band();
}

bool BandedCholesky::factor(SymBandedMatrix&& a) {
    n_ = std::exchange(a.n_, 0);
    kd_ = std::exchange(a.kd_, 0);
    band_ = std::exchange(a.band_, {});
    return factor_band();
}

bool BandedCholesky::factor_band() {
    const std::size_t n = n_;
    const std::size_t kd = kd_;

    // Relative pivot threshold: a numerically singular matrix (e.g. an
    // all-Neumann Laplacian) must fail loudly rather than factor with a
    // roundoff-sized pivot.
    double scale = 0.0;
    for (std::size_t j = 0; j < n; ++j) scale = std::max(scale, col(j)[0]);
    const double pivot_floor = 1e-12 * scale;

    // Work blocks for the trailing update: W (m x nb, ld m) and its transpose
    // Wt (nb x m, ld nb) both hold L(t1 + r, t0 + p), zero outside the band.
    const std::size_t mmax = std::min(kd, n);
    std::vector<double> w(mmax * kPanel), wt(mmax * kPanel);

    // Charged below as the unblocked algorithm's count, in one call; the
    // dgemm calls of the trailing updates charge nothing.
    std::size_t flops = 0;
    {
        const blaslite::UncountedScope uncounted;
        for (std::size_t t0 = 0; t0 < n; t0 += kPanel) {
            const std::size_t t1 = std::min(n, t0 + kPanel);
            const std::size_t nb = t1 - t0;

            // Panel: the column loop, its rank-1 updates confined to the
            // panel's columns (but running down the whole band).
            for (std::size_t j = t0; j < t1; ++j) {
                double* cj = col(j);
                const double d = cj[0];
                if (d <= pivot_floor || !std::isfinite(d)) {
                    n_ = 0;
                    return false;
                }
                const double ljj = std::sqrt(d);
                cj[0] = ljj;
                const double inv = 1.0 / ljj;
                const std::size_t imax = std::min(kd, n - 1 - j);
                for (std::size_t di = 1; di <= imax; ++di) cj[di] *= inv;
                flops += imax + 2 + imax * (imax + 1);
                const std::size_t kmax = std::min(imax, t1 - 1 - j);
                for (std::size_t dk = 1; dk <= kmax; ++dk) {
                    const double ljk = cj[dk];
                    double* ck = col(j + dk) - dk; // ck[di] = A(j + di, j + dk)
                    for (std::size_t di = dk; di <= imax; ++di) ck[di] -= cj[di] * ljk;
                }
            }

            // Trailing update of the m x m square at (t1, t1): A -= W W^T.
            const std::size_t m = std::min(kd, n - t1);
            if (m == 0) continue;
            for (std::size_t p = 0; p < nb; ++p) {
                const double* cp = col(t0 + p); // row t1 + r is offset nb - p + r
                for (std::size_t r = 0; r < m; ++r) {
                    const std::size_t d = nb - p + r;
                    const double v = d <= kd ? cp[d] : 0.0;
                    w[r + p * m] = v;
                    wt[p + r * nb] = v;
                }
            }
            for (std::size_t c = 0; c < m; c += kPanel) {
                const std::size_t kb = std::min(kPanel, m - c);
                // Lower triangle of the diagonal block, column by column.
                // W(r, p) is zero for p < nb + r - kd, so the p loop starts
                // at the first nonzero of row q, the column's diagonal.
                for (std::size_t q = c; q < c + kb; ++q) {
                    double* cq = col(t1 + q) - q; // cq[r] = A(t1 + r, t1 + q)
                    const std::size_t p0 = nb + q > kd ? nb + q - kd : 0;
                    for (std::size_t p = p0; p < nb; ++p) {
                        const double x = wt[p + q * nb];
                        const double* wp = w.data() + p * m;
                        for (std::size_t r = q; r < c + kb; ++r) cq[r] -= wp[r] * x;
                    }
                }
                // The rectangle below it lies inside the band: dgemm in place
                // through the skewed view (A(i, j) at band_[i + j*kd]).
                const std::size_t rows = m - c - kb;
                if (rows > 0)
                    blaslite::dgemm_cm(-1.0, w.data() + c + kb, m, wt.data() + c * nb, nb, 1.0,
                                       band_.data() + (t1 + c + kb) + (t1 + c) * kd, kd, rows,
                                       kb, nb);
            }
        }
    }
    blaslite::detail::charge(flops, band_.size() * sizeof(double),
                             band_.size() * sizeof(double));
    return true;
}

void BandedCholesky::solve(std::span<double> b) const {
    if (!factored())
        throw std::logic_error("BandedCholesky::solve: no factor (factor() not called or failed)");
    if (b.size() != n_)
        throw std::logic_error("BandedCholesky::solve: right-hand side has " +
                               std::to_string(b.size()) + " entries, factor has " +
                               std::to_string(n_));
    // Forward: L y = b, one axpy down each column.
    for (std::size_t j = 0; j < n_; ++j) {
        const double* cj = col(j);
        const double yj = b[j] / cj[0];
        b[j] = yj;
        const std::size_t imax = std::min(kd_, n_ - 1 - j);
        for (std::size_t d = 1; d <= imax; ++d) b[j + d] -= cj[d] * yj;
    }
    // Backward: L^T x = y, one dot product down each column.
    for (std::size_t jj = n_; jj-- > 0;) {
        const double* cj = col(jj);
        double s = b[jj];
        const std::size_t imax = std::min(kd_, n_ - 1 - jj);
        for (std::size_t d = 1; d <= imax; ++d) s -= cj[d] * b[jj + d];
        b[jj] = s / cj[0];
    }
    blaslite::detail::charge(solve_flops(), (kd_ + 1) * n_ * sizeof(double) * 2,
                             2 * n_ * sizeof(double));
}

} // namespace la
