#include "la/cg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "la/banded.hpp"
#include "la/dense.hpp"

namespace {

TEST(Pcg, SolvesSpdBandedSystem) {
    const std::size_t n = 80;
    la::SymBandedMatrix a(n, 2);
    std::mt19937 gen(11);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t d = 1; d <= 2; ++d)
        for (std::size_t j = 0; j + d < n; ++j) a.band(d, j) = dist(gen);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 6.0;

    std::vector<double> x_true(n), b(n), x(n, 0.0), inv_diag(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(gen);
    a.matvec(x_true, b);
    for (std::size_t j = 0; j < n; ++j) inv_diag[j] = 1.0 / a.band(0, j);

    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x, {.max_iterations = 500, .tolerance = 1e-12});
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Pcg, ImmediateConvergenceOnExactGuess) {
    la::SymBandedMatrix a(4, 0);
    for (std::size_t j = 0; j < 4; ++j) a.band(0, j) = 2.0;
    std::vector<double> b = {2, 4, 6, 8};
    std::vector<double> x = {1, 2, 3, 4};
    std::vector<double> inv_diag(4, 0.5);
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0u);
}

TEST(Pcg, ReportsNonConvergenceWithinBudget) {
    // An ill-conditioned system and a tiny iteration budget.
    const std::size_t n = 50;
    la::SymBandedMatrix a(n, 1);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 2.0;
    for (std::size_t j = 0; j + 1 < n; ++j) a.band(1, j) = -1.0;
    std::vector<double> b(n, 1.0), x(n, 0.0), inv_diag(n, 0.5);
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x, {.max_iterations = 3, .tolerance = 1e-14});
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 3u);
}

TEST(Pcg, DiagonalPreconditionerBeatsNone) {
    // Strongly varying diagonal: Jacobi preconditioning should converge in
    // far fewer iterations.
    const std::size_t n = 60;
    la::SymBandedMatrix a(n, 1);
    for (std::size_t j = 0; j < n; ++j)
        a.band(0, j) = 1.0 + 100.0 * static_cast<double>(j) / static_cast<double>(n);
    for (std::size_t j = 0; j + 1 < n; ++j) a.band(1, j) = -0.3;
    std::vector<double> b(n, 1.0);

    std::vector<double> x1(n, 0.0), inv1(n);
    for (std::size_t j = 0; j < n; ++j) inv1[j] = 1.0 / a.band(0, j);
    const auto with = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv1, b,
        x1, {.max_iterations = 400, .tolerance = 1e-10});

    std::vector<double> x2(n, 0.0), inv2(n, 1.0);
    const auto without = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv2, b,
        x2, {.max_iterations = 400, .tolerance = 1e-10});

    EXPECT_TRUE(with.converged);
    EXPECT_TRUE(without.converged);
    EXPECT_LT(with.iterations, without.iterations);
}

TEST(Pcg, IssuesOneFusedReduceThenTwoPerIteration) {
    // 1 + 2k reduce calls for k iterations: (r.z, r.r) fused up front, then
    // p.Ap and the fused pair once per iteration.
    const std::size_t n = 40;
    la::SymBandedMatrix a(n, 1);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 3.0 + 0.1 * static_cast<double>(j);
    for (std::size_t j = 0; j + 1 < n; ++j) a.band(1, j) = -1.0;
    std::vector<double> b(n, 1.0), x(n, 0.0), inv_diag(n);
    for (std::size_t j = 0; j < n; ++j) inv_diag[j] = 1.0 / a.band(0, j);
    std::vector<std::size_t> sizes;
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x, {.max_iterations = 500, .tolerance = 1e-12}, {},
        [&](std::span<double> v) { sizes.push_back(v.size()); });
    ASSERT_TRUE(res.converged);
    ASSERT_GT(res.iterations, 3u);
    ASSERT_EQ(sizes.size(), 1 + 2 * res.iterations);
    EXPECT_EQ(sizes.front(), 2u);
    for (std::size_t k = 0; k < res.iterations; ++k) {
        EXPECT_EQ(sizes[1 + 2 * k], 1u) << "p.Ap of iteration " << k;
        EXPECT_EQ(sizes[2 + 2 * k], 2u) << "r.z and r.r of iteration " << k;
    }
}

TEST(Pcg, WeightsScaleEachEntrysDotShare) {
    // Two copies of one entry with weight 1/2 each behave like the entry
    // once: the stored duplicate is what a dof shared by two ranks looks
    // like after assembly.  Solve diag(2, 4, 4) against b = (2, 8, 8) with
    // the last two entries one shared dof.
    const std::vector<double> d = {2.0, 4.0, 4.0}, b = {2.0, 8.0, 8.0};
    const std::vector<double> inv_diag = {0.5, 0.25, 0.25}, w = {1.0, 0.5, 0.5};
    std::vector<double> x(3, 0.0);
    std::vector<double> sums;
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) {
            for (std::size_t i = 0; i < 3; ++i) out[i] = d[i] * in[i];
        },
        inv_diag, b, x, {.max_iterations = 10, .tolerance = 1e-12}, w,
        [&](std::span<double> v) {
            if (sums.empty()) sums.assign(v.begin(), v.end());
        });
    EXPECT_TRUE(res.converged);
    // Initial r = b, z = (1, 2, 2): r.z = 2 + 16 = 18, r.r = 4 + 64 = 68.
    ASSERT_EQ(sums.size(), 2u);
    EXPECT_DOUBLE_EQ(sums[0], 18.0);
    EXPECT_DOUBLE_EQ(sums[1], 68.0);
    EXPECT_DOUBLE_EQ(x[0], 1.0);
    EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Pcg, StopsUnconvergedOnLostPositiveDefiniteness) {
    // A = -I: p.Ap < 0 at the first iteration.
    std::vector<double> b = {1.0, 2.0}, x = {0.0, 0.0}, inv_diag = {1.0, 1.0};
    const auto res = la::pcg(
        [](std::span<const double> in, std::span<double> out) {
            for (std::size_t i = 0; i < in.size(); ++i) out[i] = -in[i];
        },
        inv_diag, b, x);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 0u);
    EXPECT_DOUBLE_EQ(res.residual_norm, std::sqrt(5.0));
}

} // namespace
