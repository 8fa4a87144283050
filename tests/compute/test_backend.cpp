/// Golden-equivalence and implementation-property tests for the two compute
/// engines (compute::Backend), and for the order-based choice between them.
///
/// The sum-factorised engine must reproduce the dense reference within
/// documented tolerance bounds across orders 2-12, element groupings
/// (single-group quads, triangles-only, mixed with a non-contiguous quad
/// group) and input seeds: the direct transforms differ only by dgemm
/// contraction order (~1e-14 on O(1) fields, bounded here at a scaled
/// 1e-12), while projection passes the weak inner product through the
/// elemental mass solve, whose condition number (~1e3 at order 8) amplifies
/// that rounding — its documented bound is a scaled 1e-10.  The fused
/// convective term uses one shared implementation, so it must be
/// bit-identical across backends.  Operation counts must show the dense
/// O(P^4) -> sum-factorised O(P^3) reduction exactly.  The engines are built
/// directly, so each comparison runs both on the same discretization.  A
/// Discretization itself runs one engine, picked by its order
/// (compute::kSumFactorMinOrder).
#include "compute/backend_impl.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "blaslite/counters.hpp"
#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "nektar/ns_serial.hpp"

namespace {

using compute::BackendKind;
using compute::DenseBackend;
using compute::SumFactorBackend;
using nektar::Discretization;
using nektar::ElemGroup;

/// 4x2 vertex strip with interleaved shapes: Quad, Tri, Tri, Quad.  The quad
/// group {0, 3} is non-contiguous, so the sum-factorised path must land its
/// per-element outputs in scattered field blocks; the tri group {1, 2} takes
/// the dense fallback inside SumFactorBackend.
mesh::Mesh mixed_mesh() {
    std::vector<mesh::Vertex> v;
    for (int y = 0; y <= 1; ++y)
        for (int x = 0; x <= 3; ++x)
            v.push_back({static_cast<double>(x), static_cast<double>(y)});
    std::vector<mesh::Element> e(4);
    e[0] = {spectral::Shape::Quad, {0, 1, 5, 4}};
    e[1] = {spectral::Shape::Triangle, {1, 2, 6, -1}};
    e[2] = {spectral::Shape::Triangle, {1, 6, 5, -1}};
    e[3] = {spectral::Shape::Quad, {2, 3, 7, 6}};
    return mesh::Mesh(std::move(v), std::move(e));
}

std::vector<std::shared_ptr<Discretization>> test_discs(std::size_t order) {
    std::vector<std::shared_ptr<Discretization>> d;
    d.push_back(std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(mesh::rectangle_quads(4, 3, 0.0, 2.0, 0.0, 1.0)),
        order));
    d.push_back(std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(mesh::rectangle_tris(3, 3, 0.0, 1.0, 0.0, 1.0)), order));
    d.push_back(
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(mixed_mesh()), order));
    return d;
}

std::vector<double> test_field(std::size_t n, unsigned seed) {
    std::vector<double> f(n);
    for (std::size_t i = 0; i < n; ++i)
        f[i] = std::sin(0.37 * static_cast<double>(i + seed)) +
               0.25 * std::cos(1.13 * static_cast<double>(i * 7 + seed));
    return f;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

double max_abs(std::span<const double> a) {
    double m = 0.0;
    for (const double v : a) m = std::max(m, std::abs(v));
    return m;
}

class BackendEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BackendEquivalence, SumFactMatchesDenseOnEveryGroupShape) {
    const std::size_t order = GetParam();
    const std::size_t nplanes = 3;
    for (const auto& disc : test_discs(order)) {
        const DenseBackend dense(*disc);
        const SumFactorBackend sumfact(*disc);
        const std::size_t nm = disc->modal_size() * nplanes;
        const std::size_t nq = disc->quad_size() * nplanes;
        for (const unsigned seed : {11u, 29u, 47u}) {
            const auto modal = test_field(nm, seed);
            const auto quad_in = test_field(nq, seed + 1);

            std::vector<double> qd(nq), qs(nq);
            dense.to_quad_planes(modal, qd, nplanes);
            sumfact.to_quad_planes(modal, qs, nplanes);
            const double direct_tol = 1e-12 * std::max(1.0, max_abs(qd));
            EXPECT_LE(max_abs_diff(qd, qs), direct_tol)
                << "to_quad order " << order << " seed " << seed;

            std::vector<double> rd(nm, 0.0), rs(nm, 0.0);
            dense.weak_inner_planes(quad_in, rd, nplanes);
            sumfact.weak_inner_planes(quad_in, rs, nplanes);
            EXPECT_LE(max_abs_diff(rd, rs), 1e-12 * std::max(1.0, max_abs(rd)))
                << "weak_inner order " << order << " seed " << seed;

            std::vector<double> dxd(nq), dyd(nq), dxs(nq), dys(nq);
            dense.grad_from_modal_planes(modal, dxd, dyd, nplanes);
            sumfact.grad_from_modal_planes(modal, dxs, dys, nplanes);
            const double grad_tol =
                1e-12 * std::max({1.0, max_abs(dxd), max_abs(dyd)});
            EXPECT_LE(max_abs_diff(dxd, dxs), grad_tol)
                << "grad dx order " << order << " seed " << seed;
            EXPECT_LE(max_abs_diff(dyd, dys), grad_tol)
                << "grad dy order " << order << " seed " << seed;

            // Projection routes the weak inner product through the elemental
            // mass-matrix Cholesky solve, which amplifies contraction-order
            // rounding by the mass condition number: documented bound 1e-10.
            std::vector<double> pd(nm), ps(nm);
            dense.project_planes(quad_in, pd, nplanes);
            sumfact.project_planes(quad_in, ps, nplanes);
            EXPECT_LE(max_abs_diff(pd, ps), 1e-10 * std::max(1.0, max_abs(pd)))
                << "project order " << order << " seed " << seed;
        }
    }
}

TEST_P(BackendEquivalence, ConvectIsBitIdenticalAcrossBackends) {
    // The fused convective term lives in the shared Backend base (the
    // collocation derivative is already O(P^3)), so both backends must give
    // byte-identical results, not merely tolerance-equal.  Quad meshes only:
    // convect_planes rejects non-tensor groups.
    const std::size_t order = GetParam();
    const std::size_t nplanes = 2;
    const auto disc = std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(mesh::rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0)), order);
    const std::size_t nq = disc->quad_size() * nplanes;
    const auto u = test_field(nq, 3);
    const auto v = test_field(nq, 5);
    std::vector<double> nud(nq), nvd(nq), nus(nq), nvs(nq);
    DenseBackend(*disc).convect_planes(u, v, u, v, nud, nvd, nplanes);
    SumFactorBackend(*disc).convect_planes(u, v, u, v, nus, nvs, nplanes);
    EXPECT_EQ(0, std::memcmp(nud.data(), nus.data(), nud.size() * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(nvd.data(), nvs.data(), nvd.size() * sizeof(double)));
}

INSTANTIATE_TEST_SUITE_P(Orders, BackendEquivalence,
                         ::testing::Values<std::size_t>(2, 4, 6, 8, 10, 12));

/// blaslite's dgemm charge for an m-by-n result over a k-deep contraction
/// (2mnk multiplies/adds plus the m*n beta pass).
std::uint64_t gemm_flops(std::uint64_t m, std::uint64_t n, std::uint64_t k) {
    return 2 * m * n * k + m * n;
}

TEST(BackendOpCounts, SumFactorisationCutsTransformFlopsToP3) {
    // On an all-quad mesh the flop counts of both engines are closed-form:
    //   dense   to_quad: one dgemm per group, nq-by-cols over nm
    //   sumfact to_quad: stage A is one dgemm n1-by-(m1*cols) over m1, stage
    //           B is one n1-by-n1-over-m1 dgemm per element column
    //           (nq = n1^2, nm = m1^2 — O(P^3) per column, not O(P^4))
    // and weak_inner is the transpose of the same pipeline.  The gather /
    // scatter / weight-fold passes charge nothing on either engine (exactly
    // like the dense pack/unpack), so the counters compare pure dgemm work.
    const std::size_t nplanes = 2;
    double ratio_low = 0.0, ratio_high = 0.0;
    for (const std::size_t order : {4ul, 8ul, 12ul}) {
        const auto disc = std::make_shared<Discretization>(
            std::make_shared<mesh::Mesh>(mesh::rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0)),
            order);
        ASSERT_EQ(disc->groups().size(), 1u);
        const spectral::TensorBasis* tb = disc->groups()[0].exp->tensor_basis();
        ASSERT_NE(tb, nullptr);
        const std::uint64_t n1 = tb->nq1d, m1 = tb->nm1d;
        const std::uint64_t cols = disc->num_elements() * nplanes;
        const std::uint64_t nm = m1 * m1, nq = n1 * n1;
        const DenseBackend dense(*disc);
        const SumFactorBackend sumfact(*disc);

        const auto modal = test_field(disc->modal_size() * nplanes, 7);
        std::vector<double> quad(disc->quad_size() * nplanes);
        std::vector<double> rhs(disc->modal_size() * nplanes, 0.0);

        blaslite::OpCounts dense_tq, sf_tq, dense_wi, sf_wi;
        {
            blaslite::CountScope s;
            dense.to_quad_planes(modal, quad, nplanes);
            dense_tq = s.delta();
        }
        {
            blaslite::CountScope s;
            sumfact.to_quad_planes(modal, quad, nplanes);
            sf_tq = s.delta();
        }
        {
            blaslite::CountScope s;
            dense.weak_inner_planes(quad, rhs, nplanes);
            dense_wi = s.delta();
        }
        {
            blaslite::CountScope s;
            sumfact.weak_inner_planes(quad, rhs, nplanes);
            sf_wi = s.delta();
        }

        EXPECT_EQ(dense_tq.flops, gemm_flops(nq, cols, nm)) << "order " << order;
        EXPECT_EQ(sf_tq.flops,
                  gemm_flops(n1, m1 * cols, m1) + cols * gemm_flops(n1, n1, m1))
            << "order " << order;
        EXPECT_EQ(dense_wi.flops, gemm_flops(nm, cols, nq)) << "order " << order;
        EXPECT_EQ(sf_wi.flops,
                  gemm_flops(m1, n1 * cols, n1) + cols * gemm_flops(m1, m1, n1))
            << "order " << order;
        EXPECT_LT(sf_tq.flops, dense_tq.flops) << "order " << order;

        const double ratio =
            static_cast<double>(dense_tq.flops) / static_cast<double>(sf_tq.flops);
        if (order == 4) ratio_low = ratio;
        if (order == 12) ratio_high = ratio;
    }
    // O(P^4)/O(P^3) grows ~linearly in P: the advantage at order 12 must be
    // decisively larger than at order 4, pinning the asymptotic behaviour
    // rather than a fixed constant.
    EXPECT_GT(ratio_high, 2.0 * ratio_low);
}

TEST(BackendPlans, FactorisedGroupCoverageMatchesTensorBases) {
    // num_factorised_groups() must equal the number of element groups with a
    // tensor factorisation: all of an all-quad mesh, none of an all-tri
    // mesh, and exactly the quad group of the mixed mesh (whose tri group
    // takes the dense fallback).
    const auto discs = test_discs(5);
    std::vector<std::size_t> counts;
    for (const auto& disc : discs) {
        std::size_t with_tensor = 0;
        for (const ElemGroup& g : disc->groups())
            if (g.exp->tensor_basis() != nullptr) ++with_tensor;
        counts.push_back(SumFactorBackend(*disc).num_factorised_groups());
        EXPECT_EQ(counts.back(), with_tensor);
    }
    // The three meshes cover the full spectrum explicitly.
    EXPECT_EQ(counts[0], discs[0]->groups().size()); // quads: all
    EXPECT_EQ(counts[1], 0u);                        // tris: none
    EXPECT_GT(counts[2], 0u);                        // mixed: quad group only
    EXPECT_LT(counts[2], discs[2]->groups().size());
}

TEST(DiscretizationEngine, OrderBelowCrossoverRunsDense) {
    static_assert(compute::kSumFactorMinOrder == 8);
    const Discretization disc(
        std::make_shared<mesh::Mesh>(mesh::rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0)), 7);
    EXPECT_EQ(disc.engine().kind(), BackendKind::Dense);
    EXPECT_STREQ(disc.engine().name(), "dense");
    EXPECT_NE(dynamic_cast<const DenseBackend*>(&disc.engine()), nullptr);
    EXPECT_EQ(dynamic_cast<const SumFactorBackend*>(&disc.engine()), nullptr);
}

TEST(DiscretizationEngine, CrossoverOrderRunsSumFactor) {
    const Discretization disc(
        std::make_shared<mesh::Mesh>(mesh::rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0)),
        compute::kSumFactorMinOrder);
    EXPECT_EQ(disc.engine().kind(), BackendKind::SumFactor);
    EXPECT_STREQ(disc.engine().name(), "sumfact");
    const auto* sf = dynamic_cast<const SumFactorBackend*>(&disc.engine());
    ASSERT_NE(sf, nullptr);
    EXPECT_EQ(sf->num_factorised_groups(), disc.groups().size());
}

TEST(DiscretizationEngine, MixedMeshAtCrossoverKeepsTrianglesOnDenseFallback) {
    const Discretization disc(std::make_shared<mesh::Mesh>(mixed_mesh()),
                              compute::kSumFactorMinOrder);
    EXPECT_EQ(disc.engine().kind(), BackendKind::SumFactor);
    const auto* sf = dynamic_cast<const SumFactorBackend*>(&disc.engine());
    ASSERT_NE(sf, nullptr);
    ASSERT_EQ(disc.groups().size(), 2u);
    EXPECT_EQ(sf->num_factorised_groups(), 1u); // the quad group; tris run dense

    // The discretization's transforms are its engine's, tri group included.
    const std::size_t nm = disc.modal_size(), nq = disc.quad_size();
    const auto modal = test_field(nm, 13);
    std::vector<double> via_disc(nq), via_dense(nq);
    disc.to_quad(modal, via_disc);
    DenseBackend(disc).to_quad_planes(modal, via_dense, 1);
    EXPECT_LE(max_abs_diff(via_disc, via_dense), 1e-12 * std::max(1.0, max_abs(via_dense)));
}

TEST(EngineFingerprint, SerialOrder4FingerprintIsUnchanged) {
    // Order 4 runs the dense engine, exactly as the default did before the
    // engine was picked by order, so its options fingerprint (and with it
    // every checkpoint header) keeps the recorded value.
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 4);
    nektar::SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = 0.01;
    const nektar::SerialNS2d ns(disc, opts);
    // The "meta" section of every checkpoint is the options fingerprint.
    EXPECT_EQ(ns.checkpoint().open("meta").u64(), 0xb6135c83b9306b4eull);
}

} // namespace
