#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/dense.hpp"

/// \file banded.hpp
/// Symmetric banded storage and Cholesky solver.
///
/// The paper's serial and Fourier solvers spend ~60% of each time step in
/// "matrix inversions ... a direct solver (LAPACK), utilising the symmetric
/// and banded nature of the matrix" (stages 5 and 7, Figure 12).  This is the
/// from-scratch equivalent of LAPACK's dpbtrf/dpbtrs pair, in LAPACK's
/// storage layout.
///
/// Storage.  Both classes keep the lower band column-major with leading
/// dimension kd + 1 (LAPACK 'L' band storage): A(j + d, j) lives at
/// band_[j*(kd + 1) + d].  One column of the band is contiguous, so the
/// column loops of the factor and of both triangular solves walk memory
/// with unit stride.
///
/// Skewed dense view.  Substituting i = j + d gives A(i, j) at
/// band_[i + j*kd]: the band is a dense column-major matrix with leading
/// dimension kd whose columns are shifted down by one row each.  Every
/// rectangle of rows x columns that lies inside the lower band
/// (0 <= i - j <= kd for all its entries) is therefore an ordinary dense
/// block with ld = kd and can be handed to dgemm in place.  Addresses outside
/// the band are not zeros in this view: above the diagonal or more than kd
/// below it they alias neighbouring columns, so nothing may read or write
/// them through the view.
///
/// Blocked factor.  BandedCholesky::factor is right-looking over panels of
/// kPanel columns.  Each panel is factored by the plain column loop (pivot,
/// scale, rank-1 updates restricted to the panel's own columns; those updates
/// still run down to row j + kd).  The panel's effect on the trailing
/// min(kd, n - t1) square (t1 = first column after the panel) is then one
/// symmetric rank-kPanel update L21 L21^T: the panel's rows below it are
/// copied once into two zero-padded work blocks (one per orientation), the
/// strictly-below-diagonal rectangles of the square go through
/// blaslite::dgemm_cm in place, and the lower triangles of its diagonal
/// kPanel x kPanel blocks take a small loop that writes nothing above the
/// diagonal.
namespace la {

/// Symmetric positive-definite banded matrix, lower-band storage:
/// band(d, j) holds A(j + d, j) for diagonal offset d in [0, bandwidth].
class SymBandedMatrix {
public:
    SymBandedMatrix() = default;
    SymBandedMatrix(std::size_t n, std::size_t bandwidth)
        : n_(n), kd_(bandwidth), band_((bandwidth + 1) * n, 0.0) {}

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return kd_; }

    /// Entry accessor in banded coordinates: offset d below the diagonal.
    double& band(std::size_t d, std::size_t j) noexcept { return band_[j * (kd_ + 1) + d]; }
    double band(std::size_t d, std::size_t j) const noexcept { return band_[j * (kd_ + 1) + d]; }

    /// Adds v to A(i, j) (and implicitly A(j, i)); |i - j| must be <= bandwidth.
    void add(std::size_t i, std::size_t j, double v) noexcept;

    /// Full A(i, j) (zero outside the band).
    [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept;

    /// y = A x using symmetric banded storage.
    void matvec(std::span<const double> x, std::span<double> y) const;

    /// Dense copy (tests / structure plots).
    [[nodiscard]] DenseMatrix to_dense() const;

private:
    friend class BandedCholesky; // takes the storage over in factor(&&)
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<double> band_;
};

/// Banded Cholesky factorization A = L L^T kept in banded storage, plus the
/// solve.  Factorization costs O(n * kd^2); each solve costs O(n * kd).
class BandedCholesky {
public:
    /// Panel width of the blocked factor (columns per dgemm trailing update).
    static constexpr std::size_t kPanel = 64;

    BandedCholesky() = default;

    /// Factors `a`; returns false if the matrix is not positive definite.
    bool factor(const SymBandedMatrix& a);

    /// Factors `a` in its own storage, leaving `a` empty: no second copy of
    /// the band is alive, which is what a solver whose assembled matrix is
    /// dead after factoring wants.
    bool factor(SymBandedMatrix&& a);

    /// Solves A x = b; b is overwritten with x.  Throws std::logic_error if
    /// there is no factor (none taken, or the last factor() failed) or if
    /// b.size() != size().
    void solve(std::span<double> b) const;

    [[nodiscard]] bool factored() const noexcept { return n_ > 0; }
    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return kd_; }

    /// Flop count of one solve (forward + back substitution); used by the
    /// per-machine performance predictors.
    [[nodiscard]] std::size_t solve_flops() const noexcept {
        return 2 * (2 * n_ * (kd_ + 1));
    }

private:
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<double> band_; // L in the same lower-band layout

    /// Factors band_ (already holding A) in place.
    bool factor_band();
    /// Column j of L: col(j)[d] = L(j + d, j).
    double* col(std::size_t j) noexcept { return band_.data() + j * (kd_ + 1); }
    const double* col(std::size_t j) const noexcept { return band_.data() + j * (kd_ + 1); }
};

} // namespace la
