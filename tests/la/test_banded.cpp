#include "la/banded.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>

#include "blaslite/counters.hpp"
#include "parallel/thread_pool.hpp"

namespace {

/// Random SPD banded matrix: diagonally dominant within the band.
la::SymBandedMatrix random_banded(std::size_t n, std::size_t kd, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    la::SymBandedMatrix a(n, kd);
    for (std::size_t d = 1; d <= kd; ++d)
        for (std::size_t j = 0; j + d < n; ++j) a.band(d, j) = dist(gen);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 2.0 * static_cast<double>(kd) + 1.0;
    return a;
}

class BandedSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedSizes, CholeskyRoundTrip) {
    const auto [n, kd] = GetParam();
    const auto nu = static_cast<std::size_t>(n);
    const auto a = random_banded(nu, static_cast<std::size_t>(kd), 42);
    std::vector<double> x_true(nu), b(nu);
    std::mt19937 gen(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : x_true) v = dist(gen);
    a.matvec(x_true, b);
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(a));
    chol.solve(b);
    for (std::size_t i = 0; i < nu; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedSizes,
                         ::testing::Values(std::pair{1, 0}, std::pair{5, 0}, std::pair{10, 1},
                                           std::pair{20, 3}, std::pair{50, 7},
                                           std::pair{200, 15}, std::pair{128, 127}));

std::vector<double> random_vector(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& x : v) x = dist(gen);
    return v;
}

// Shapes around the blocked factor's panel width: bandwidth below, at and
// just past one panel, bandwidth at least n, and n not a multiple of the
// panel.  Each solve is checked against the dense Cholesky of to_dense().
class BandedPanelShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedPanelShapes, MatchesDenseCholesky) {
    const auto [n, kd] = GetParam();
    const auto nu = static_cast<std::size_t>(n);
    const auto a = random_banded(nu, static_cast<std::size_t>(kd), 3);
    const std::vector<double> rhs = random_vector(nu, 11);
    std::vector<double> xb = rhs, xd = rhs;
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(a));
    chol.solve(xb);
    la::DenseMatrix dense = a.to_dense();
    ASSERT_TRUE(la::cholesky_factor(dense));
    la::cholesky_solve(dense, xd);
    // Both are backward-stable solves of a well-conditioned system: their
    // difference is roundoff relative to the solution's size.
    double xnorm = 0.0, diff = 0.0;
    for (std::size_t i = 0; i < nu; ++i) {
        xnorm = std::max(xnorm, std::abs(xd[i]));
        diff = std::max(diff, std::abs(xb[i] - xd[i]));
    }
    EXPECT_LE(diff, 1e-12 * static_cast<double>(n) * xnorm);
    // And the banded solution leaves a residual at roundoff level.
    std::vector<double> ax(nu);
    a.matvec(xb, ax);
    double res = 0.0, bnorm = 0.0;
    for (std::size_t i = 0; i < nu; ++i) {
        res = std::max(res, std::abs(ax[i] - rhs[i]));
        bnorm = std::max(bnorm, std::abs(rhs[i]));
    }
    EXPECT_LE(res, 1e-12 * static_cast<double>(n) * bnorm);
}

constexpr int kNb = static_cast<int>(la::BandedCholesky::kPanel);

INSTANTIATE_TEST_SUITE_P(
    Panels, BandedPanelShapes,
    ::testing::Values(std::pair{300, 10}, std::pair{300, kNb - 1}, std::pair{300, kNb},
                      std::pair{300, kNb + 1}, std::pair{257, kNb}, std::pair{130, 129},
                      std::pair{100, 150}, std::pair{1000, 300}, std::pair{3 * kNb, 2 * kNb},
                      std::pair{kNb + 1, kNb - 1}));

TEST(Banded, IndefinitePivotInALaterPanelFails) {
    const std::size_t col = 3 * la::BandedCholesky::kPanel + 5;
    auto a = random_banded(col + 100, 40, 5);
    a.band(0, col) = -1.0;
    la::BandedCholesky chol;
    EXPECT_FALSE(chol.factor(a));
    EXPECT_FALSE(chol.factored());
}

TEST(Banded, SolveWithoutAFactorThrows) {
    std::vector<double> b(3, 1.0);
    la::BandedCholesky none;
    EXPECT_THROW(none.solve(b), std::logic_error);

    la::SymBandedMatrix a(3, 1);
    a.band(0, 0) = 1.0;
    a.band(0, 1) = -1.0;
    a.band(0, 2) = 1.0;
    la::BandedCholesky failed;
    ASSERT_FALSE(failed.factor(a));
    EXPECT_THROW(failed.solve(b), std::logic_error);
    EXPECT_EQ(b, std::vector<double>(3, 1.0));
}

TEST(Banded, SolveRejectsAWrongSizedRightHandSide) {
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(random_banded(10, 2, 1)));
    std::vector<double> short_b(9, 1.0), long_b(11, 1.0);
    EXPECT_THROW(chol.solve(short_b), std::logic_error);
    EXPECT_THROW(chol.solve(long_b), std::logic_error);
}

TEST(Banded, FactorChargesTheUnblockedCountAsOneCall) {
    const std::size_t n = 1000, kd = 300;
    const auto a = random_banded(n, kd, 2);
    std::uint64_t flops = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t imax = std::min(kd, n - 1 - j);
        flops += imax + 2;
        for (std::size_t dk = 1; dk <= imax; ++dk) flops += 2 * (imax - dk + 1);
    }
    const std::uint64_t bytes = (kd + 1) * n * sizeof(double);
    la::BandedCholesky chol;
    blaslite::CountScope scope;
    ASSERT_TRUE(chol.factor(a));
    const blaslite::OpCounts c = scope.delta();
    EXPECT_EQ(c.flops, flops);
    EXPECT_EQ(c.bytes_read, bytes);
    EXPECT_EQ(c.bytes_written, bytes);
    EXPECT_EQ(c.calls, 1u);
    EXPECT_EQ(chol.solve_flops(), 2 * (2 * n * (kd + 1)));
}

TEST(Banded, FactorIsBitIdenticalAcrossThreadCounts) {
    const auto a = random_banded(1000, 300, 4);
    const std::vector<double> rhs = random_vector(1000, 8);
    const auto run = [&](unsigned threads) {
        parallel::set_num_threads(threads);
        la::BandedCholesky chol;
        EXPECT_TRUE(chol.factor(a));
        std::vector<double> x = rhs;
        chol.solve(x);
        return x;
    };
    const unsigned before = parallel::num_threads();
    const std::vector<double> x1 = run(1);
    const std::vector<double> x4 = run(4);
    parallel::set_num_threads(before);
    ASSERT_EQ(x1.size(), x4.size());
    EXPECT_EQ(std::memcmp(x1.data(), x4.data(), x1.size() * sizeof(double)), 0);
}

TEST(Banded, FactorInPlaceMatchesCopyAndEmptiesTheSource) {
    const auto a = random_banded(400, 90, 6);
    const std::vector<double> rhs = random_vector(400, 9);
    la::BandedCholesky copied, moved;
    ASSERT_TRUE(copied.factor(a));
    auto consumed = a;
    ASSERT_TRUE(moved.factor(std::move(consumed)));
    EXPECT_EQ(consumed.size(), 0u);
    EXPECT_EQ(consumed.bandwidth(), 0u);
    std::vector<double> x1 = rhs, x2 = rhs;
    copied.solve(x1);
    moved.solve(x2);
    EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0);
}

TEST(Banded, MatchesDenseCholesky) {
    const auto a = random_banded(30, 4, 1);
    la::DenseMatrix dense = a.to_dense();
    std::vector<double> b(30, 1.0), bd(30, 1.0);
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(a));
    chol.solve(b);
    ASSERT_TRUE(la::cholesky_factor(dense));
    la::cholesky_solve(dense, bd);
    for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(b[i], bd[i], 1e-10);
}

TEST(Banded, RejectsIndefinite) {
    la::SymBandedMatrix a(3, 1);
    a.band(0, 0) = 1.0;
    a.band(0, 1) = -1.0; // negative diagonal
    a.band(0, 2) = 1.0;
    la::BandedCholesky chol;
    EXPECT_FALSE(chol.factor(a));
    EXPECT_FALSE(chol.factored());
}

TEST(Banded, AtAndAddRespectSymmetry) {
    la::SymBandedMatrix a(5, 2);
    a.add(1, 3, 2.5);
    EXPECT_DOUBLE_EQ(a.at(1, 3), 2.5);
    EXPECT_DOUBLE_EQ(a.at(3, 1), 2.5);
    EXPECT_DOUBLE_EQ(a.at(0, 4), 0.0); // outside band
    const auto d = a.to_dense();
    EXPECT_DOUBLE_EQ(d.symmetry_defect(), 0.0);
}

TEST(Banded, MatvecMatchesDense) {
    const auto a = random_banded(25, 3, 9);
    const auto dense = a.to_dense();
    std::vector<double> x(25), y1(25), y2(25);
    for (std::size_t i = 0; i < 25; ++i) x[i] = static_cast<double>(i) * 0.1 - 1.0;
    a.matvec(x, y1);
    dense.matvec(x, y2);
    for (std::size_t i = 0; i < 25; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

} // namespace
