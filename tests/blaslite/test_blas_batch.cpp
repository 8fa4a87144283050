#include "blaslite/blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <tuple>
#include <vector>

namespace {

std::vector<double> random_vec(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& x : v) x = dist(gen);
    return v;
}

// Plain triple-loop row-major reference with the same per-element
// accumulation order as the micro-kernel (ascending p), so comparisons can be
// bitwise where the test wants them to be.
void reference_gemm(double alpha, const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
                    std::size_t n, std::size_t k) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t p = 0; p < k; ++p) s += a[i * lda + p] * b[p * ldb + j];
            c[i * ldc + j] = alpha * s + beta * c[i * ldc + j];
        }
    }
}

// Sizes chosen to exercise both dispatch regimes of dgemm: the unblocked
// small path (n < 8 or tiny flop counts) and the packed micro-kernel path
// (wide n, k > 0), including ragged row tails (m % 4) and column tails
// (n % 8).
class BatchGemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BatchGemmSizes, DgemmMatchesReference) {
    const auto [mi, ni, ki] = GetParam();
    const auto m = static_cast<std::size_t>(mi);
    const auto n = static_cast<std::size_t>(ni);
    const auto k = static_cast<std::size_t>(ki);
    const auto a = random_vec(m * k, 11);
    const auto b = random_vec(k * n, 12);
    auto c = random_vec(m * n, 13);
    auto ref = c;
    reference_gemm(1.25, a.data(), k, b.data(), n, -0.5, ref.data(), n, m, n, k);
    blaslite::dgemm(1.25, a.data(), k, b.data(), n, -0.5, c.data(), n, m, n, k);
    EXPECT_LT(blaslite::max_abs_diff(c, ref), 1e-12 * static_cast<double>(k + 1))
        << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(BatchGemmSizes, DgemmCmMatchesTransposedReference) {
    const auto [mi, ni, ki] = GetParam();
    const auto m = static_cast<std::size_t>(mi);
    const auto n = static_cast<std::size_t>(ni);
    const auto k = static_cast<std::size_t>(ki);
    // Column-major A (m x k, lda=m) is the row-major k x m buffer transposed;
    // run the row-major reference on the swapped operands.
    const auto a = random_vec(m * k, 21);
    const auto b = random_vec(k * n, 22);
    auto c = random_vec(m * n, 23);
    auto ref = c;
    // ref (col-major m x n, ldc=m) viewed row-major is n x m: ref' = B'*A'.
    reference_gemm(2.0, b.data(), k, a.data(), m, 0.25, ref.data(), m, n, m, k);
    blaslite::dgemm_cm(2.0, a.data(), m, b.data(), k, 0.25, c.data(), m, m, n, k);
    EXPECT_LT(blaslite::max_abs_diff(c, ref), 1e-12 * static_cast<double>(k + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchGemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                                           std::make_tuple(4, 8, 9), std::make_tuple(5, 7, 16),
                                           std::make_tuple(12, 20, 25),
                                           std::make_tuple(13, 33, 81),
                                           std::make_tuple(100, 64, 81),
                                           std::make_tuple(81, 256, 100),
                                           std::make_tuple(7, 129, 1),
                                           std::make_tuple(64, 6, 64)));

TEST(BatchGemm, BatchIsBitwiseEqualToPerItemCalls) {
    // The contract the golden-equivalence tests in tests/nektar rely on:
    // dgemm_batch_same_a(a, items...) produces bit-identical output to the
    // per-item dgemm_cm loop, for both the packed path (m >= 8) and the
    // small-path fallback (m < 8).
    for (const auto& [m, k, n, nitems] :
         {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{100, 81, 24, 5},
          {81, 100, 16, 3},
          {6, 9, 10, 4},   // m < 8: small path
          {32, 0, 7, 2},   // k == 0: pure beta scaling
          {40, 25, 0, 3}}) {
        const auto a = random_vec(m * k, 31);
        const auto bs = random_vec(k * n * nitems + 1, 32);
        auto c_batch = random_vec(m * n * nitems + 1, 33);
        auto c_loop = c_batch;

        std::vector<blaslite::GemmBatchItem> items(nitems);
        for (std::size_t i = 0; i < nitems; ++i)
            items[i] = {bs.data() + i * k * n, c_batch.data() + i * m * n};
        blaslite::dgemm_batch_same_a(1.5, a.data(), m, m, k, items, n, k, m, 0.5);

        for (std::size_t i = 0; i < nitems; ++i)
            blaslite::dgemm_cm(1.5, a.data(), m, bs.data() + i * k * n, k, 0.5,
                               c_loop.data() + i * m * n, m, m, n, k);
        for (std::size_t i = 0; i < c_batch.size(); ++i)
            ASSERT_EQ(c_batch[i], c_loop[i])
                << "i=" << i << " m=" << m << " k=" << k << " n=" << n;
    }
}

TEST(BatchGemm, DgemmChargesExactCounts) {
    const std::size_t n = 24;
    const auto a = random_vec(n * n, 41);
    const auto b = random_vec(n * n, 42);
    std::vector<double> c(n * n, 0.0);
    blaslite::CountScope scope;
    blaslite::dgemm_square(1.0, a.data(), b.data(), 0.0, c.data(), n);
    const auto d = scope.delta();
    EXPECT_EQ(d.flops, 2 * n * n * n + n * n);
    EXPECT_EQ(d.bytes_read, 3 * n * n * sizeof(double));
    EXPECT_EQ(d.bytes_written, n * n * sizeof(double));
    EXPECT_EQ(d.calls, 1u);
}

TEST(BatchGemm, BatchChargesSumOfPerItemCounts) {
    // The batch must charge exactly what the equivalent dgemm_cm loop would,
    // so the virtual-clock model cannot tell the execution strategies apart.
    const std::size_t m = 100, k = 81, n = 12, nitems = 7;
    const auto a = random_vec(m * k, 51);
    const auto bs = random_vec(k * n * nitems, 52);
    std::vector<double> c(m * n * nitems, 0.0);
    std::vector<blaslite::GemmBatchItem> items(nitems);
    for (std::size_t i = 0; i < nitems; ++i)
        items[i] = {bs.data() + i * k * n, c.data() + i * m * n};

    blaslite::CountScope batch_scope;
    blaslite::dgemm_batch_same_a(1.0, a.data(), m, m, k, items, n, k, m, 0.0);
    const auto batch = batch_scope.delta();

    blaslite::CountScope loop_scope;
    for (std::size_t i = 0; i < nitems; ++i)
        blaslite::dgemm_cm(1.0, a.data(), m, bs.data() + i * k * n, k, 0.0,
                           c.data() + i * m * n, m, m, n, k);
    const auto loop = loop_scope.delta();

    EXPECT_EQ(batch.flops, loop.flops);
    EXPECT_EQ(batch.bytes_read, loop.bytes_read);
    EXPECT_EQ(batch.bytes_written, loop.bytes_written);
    EXPECT_EQ(batch.calls, loop.calls);
    EXPECT_EQ(batch.calls, nitems);
}

TEST(BatchGemm, EmptyBatchIsANoOp) {
    blaslite::CountScope scope;
    blaslite::dgemm_batch_same_a(1.0, nullptr, 8, 8, 8, {}, 8, 8, 8, 0.0);
    EXPECT_EQ(scope.delta().calls, 0u);
}

} // namespace

namespace {

/// Counts charged by `f` on this thread.
template <class F>
blaslite::OpCounts counts_of(F&& f) {
    const blaslite::CountScope scope;
    f();
    return scope.delta();
}

void expect_same_counts(const blaslite::OpCounts& got, const blaslite::OpCounts& want,
                        std::size_t n) {
    EXPECT_EQ(got.flops, want.flops) << "n=" << n;
    EXPECT_EQ(got.bytes_read, want.bytes_read) << "n=" << n;
    EXPECT_EQ(got.bytes_written, want.bytes_written) << "n=" << n;
    EXPECT_EQ(got.calls, want.calls) << "n=" << n;
}

} // namespace

TEST(GatherGemmScatter, MatchesPerElementDgemmCmBitwise) {
    // Several elements share slots (a slot's sums depend on their order),
    // signs are mixed, and n spans one to four accumulators plus ragged
    // tails.
    constexpr std::size_t count = 7;
    for (std::size_t n = 3; n <= 32; ++n) {
        const std::size_t ld = blaslite::padded_ld(n);
        ASSERT_GE(ld, n);
        ASSERT_EQ(ld % 8, 0u);
        const auto a = random_vec(n * n, 40 + static_cast<unsigned>(n));
        std::vector<double> slab(ld * n, 0.0);
        for (std::size_t c = 0; c < n; ++c)
            for (std::size_t i = 0; i < n; ++i) slab[c * ld + i] = a[c * n + i];
        // Element e's modes take distinct slots, shuffled and shifted by
        // e n / 2, so neighbouring elements overlap by half.
        const std::size_t nslots = 2 * n;
        std::vector<std::size_t> perm(n);
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::shuffle(perm.begin(), perm.end(), std::mt19937(static_cast<unsigned>(n)));
        std::vector<int> slot(count * n);
        std::vector<double> sign(count * n);
        for (std::size_t e = 0; e < count; ++e)
            for (std::size_t i = 0; i < n; ++i) {
                slot[e * n + i] = static_cast<int>((e * (n / 2) + perm[i]) % nslots);
                sign[e * n + i] = (e + i) % 3 == 0 ? -1.0 : 1.0;
            }
        const auto p = random_vec(nslots, 90 + static_cast<unsigned>(n));

        std::vector<double> want(nslots, 0.0), x(n), y(n);
        for (std::size_t e = 0; e < count; ++e) {
            for (std::size_t i = 0; i < n; ++i)
                x[i] = sign[e * n + i] * p[static_cast<std::size_t>(slot[e * n + i])];
            blaslite::dgemm_cm(1.0, a.data(), n, x.data(), n, 0.0, y.data(), n, n, 1, n);
            for (std::size_t i = 0; i < n; ++i)
                want[static_cast<std::size_t>(slot[e * n + i])] += sign[e * n + i] * y[i];
        }
        std::vector<double> got(nslots, 0.0);
        blaslite::gather_gemm_scatter(slab.data(), n, count, slot.data(), sign.data(), p.data(),
                                      got.data());
        for (std::size_t s = 0; s < nslots; ++s)
            EXPECT_EQ(std::memcmp(&got[s], &want[s], sizeof(double)), 0)
                << "n=" << n << " slot " << s << ": " << got[s] << " vs " << want[s];
    }
}

TEST(GatherGemmScatter, ChargesTheCallsItReplaces) {
    constexpr std::size_t count = 5;
    for (const std::size_t n : {3u, 8u, 16u, 27u}) {
        const std::vector<double> slab(blaslite::padded_ld(n) * n, 0.5), a(n * n, 0.5);
        std::vector<int> slot(count * n);
        for (std::size_t i = 0; i < slot.size(); ++i) slot[i] = static_cast<int>(i % n);
        const std::vector<double> sign(count * n, 1.0), p(n, 1.0), panel(n * count, 1.0);
        std::vector<double> q(n), y(n * count);
        // A run of a contiguous group: one dgemm_cm over its panel.
        expect_same_counts(counts_of([&] {
                               blaslite::gather_gemm_scatter(slab.data(), n, count, slot.data(),
                                                             sign.data(), p.data(), q.data());
                           }),
                           counts_of([&] {
                               blaslite::dgemm_cm(1.0, a.data(), n, panel.data(), n, 0.0,
                                                  y.data(), n, n, count, n);
                           }),
                           n);
        // A run of a scattered group: one dgemv per element.
        expect_same_counts(counts_of([&] {
                               blaslite::gather_gemm_scatter(slab.data(), n, count, slot.data(),
                                                             sign.data(), p.data(), q.data(),
                                                             /*per_element_gemv=*/true);
                           }),
                           counts_of([&] {
                               for (std::size_t e = 0; e < count; ++e)
                                   blaslite::dgemv(1.0, a.data(), n, n, n, panel.data(), 0.0,
                                                   y.data());
                           }),
                           n);
    }
}
