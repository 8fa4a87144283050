/// Golden-equivalence tests for the batched elemental operator engine: every
/// grouped/batched path must reproduce the per-element ElementOps results to
/// 1e-12 on single-group, multi-group, and non-contiguous-group meshes, and
/// the Fourier solver must be bitwise independent of the thread-pool size.
/// These run on the engine the order picks, so the order-8 cases check the
/// sum-factorised engine against the same per-element references.
/// Projection alone gets a looser bound: the mass-matrix solve amplifies the
/// contraction-order rounding of the weak inner product by the elemental
/// condition number (~1e3 at order 8), so its cross-backend error sits near
/// 5e-12 where the direct transforms stay at ~1e-14.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "nektar/helmholtz.hpp"
#include "nektar/ns_fourier.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using nektar::Discretization;
using nektar::ElemGroup;

/// 4x2 vertex strip with interleaved shapes: Quad, Tri, Tri, Quad.  The quad
/// group {0, 3} is non-contiguous (exercises the pack/unpack path); the tri
/// group {1, 2} is contiguous.
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
               0.25 * std::cos(1.13 * static_cast<double>(i * seed + 1));
    return f;
}

double max_diff(std::span<const double> a, std::span<const double> b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

class BatchedOps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedOps, GroupsPartitionTheMesh) {
    for (const auto& disc : test_discs(GetParam())) {
        std::vector<char> seen(disc->num_elements(), 0);
        for (const ElemGroup& g : disc->groups()) {
            for (std::size_t e : g.elems) {
                ASSERT_LT(e, disc->num_elements());
                ASSERT_FALSE(seen[e]) << "element in two groups";
                seen[e] = 1;
                EXPECT_EQ(disc->ops(e).expansion_ptr().get(), g.exp.get());
            }
            const bool contig = g.elems.back() - g.elems.front() + 1 == g.elems.size();
            EXPECT_EQ(g.contiguous, contig);
        }
        for (char s : seen) EXPECT_TRUE(s);
    }
    // The mixed mesh must actually exercise the non-contiguous path.
    const auto mixed = test_discs(GetParam()).back();
    bool has_noncontig = false;
    for (const ElemGroup& g : mixed->groups()) has_noncontig |= !g.contiguous;
    EXPECT_TRUE(has_noncontig);
}

TEST_P(BatchedOps, ToQuadMatchesPerElement) {
    for (const auto& disc : test_discs(GetParam())) {
        const auto modal = test_field(disc->modal_size(), 3);
        std::vector<double> batched(disc->quad_size()), ref(disc->quad_size());
        disc->to_quad(modal, batched);
        for (std::size_t e = 0; e < disc->num_elements(); ++e)
            disc->ops(e).interp_to_quad(disc->modal_block(std::span<const double>(modal), e),
                                        disc->quad_block(std::span<double>(ref), e));
        EXPECT_LE(max_diff(batched, ref), 1e-12);
    }
}

TEST_P(BatchedOps, WeakInnerMatchesPerElement) {
    for (const auto& disc : test_discs(GetParam())) {
        const auto quad = test_field(disc->quad_size(), 5);
        std::vector<double> batched(disc->modal_size(), 0.5), ref(disc->modal_size(), 0.5);
        disc->weak_inner(quad, batched); // accumulates: rhs += (f, phi)
        for (std::size_t e = 0; e < disc->num_elements(); ++e)
            disc->ops(e).weak_inner(disc->quad_block(std::span<const double>(quad), e),
                                    disc->modal_block(std::span<double>(ref), e));
        EXPECT_LE(max_diff(batched, ref), 1e-12);
    }
}

TEST_P(BatchedOps, ProjectMatchesPerElement) {
    for (const auto& disc : test_discs(GetParam())) {
        const auto quad = test_field(disc->quad_size(), 7);
        std::vector<double> batched(disc->modal_size()), ref(disc->modal_size());
        disc->project(quad, batched);
        for (std::size_t e = 0; e < disc->num_elements(); ++e)
            disc->ops(e).project(disc->quad_block(std::span<const double>(quad), e),
                                 disc->modal_block(std::span<double>(ref), e));
        EXPECT_LE(max_diff(batched, ref), 1e-10);
    }
}

TEST_P(BatchedOps, GradMatchesPerElement) {
    for (const auto& disc : test_discs(GetParam())) {
        const auto modal = test_field(disc->modal_size(), 9);
        const std::size_t nq = disc->quad_size();
        std::vector<double> bx(nq), by(nq), rx(nq), ry(nq);
        disc->grad_from_modal(modal, bx, by);
        for (std::size_t e = 0; e < disc->num_elements(); ++e)
            disc->ops(e).grad_from_modal(disc->modal_block(std::span<const double>(modal), e),
                                         disc->quad_block(std::span<double>(rx), e),
                                         disc->quad_block(std::span<double>(ry), e));
        EXPECT_LE(max_diff(bx, rx), 1e-12);
        EXPECT_LE(max_diff(by, ry), 1e-12);
    }
}

TEST_P(BatchedOps, PlaneVariantsMatchPerPlaneLoops) {
    const std::size_t nplanes = 3;
    for (const auto& disc : test_discs(GetParam())) {
        const std::size_t nm = disc->modal_size(), nq = disc->quad_size();
        const auto modal = test_field(nm * nplanes, 11);
        const auto quad_in = test_field(nq * nplanes, 13);

        std::vector<double> qb(nq * nplanes), qr(nq * nplanes);
        disc->to_quad_planes(modal, qb, nplanes);
        for (std::size_t p = 0; p < nplanes; ++p)
            disc->to_quad(std::span<const double>(modal).subspan(p * nm, nm),
                          std::span<double>(qr).subspan(p * nq, nq));
        EXPECT_LE(max_diff(qb, qr), 1e-12);

        std::vector<double> wb(nm * nplanes, 0.125), wr(nm * nplanes, 0.125);
        disc->weak_inner_planes(quad_in, wb, nplanes);
        for (std::size_t p = 0; p < nplanes; ++p)
            disc->weak_inner(std::span<const double>(quad_in).subspan(p * nq, nq),
                             std::span<double>(wr).subspan(p * nm, nm));
        EXPECT_LE(max_diff(wb, wr), 1e-12);

        std::vector<double> pb(nm * nplanes), pr(nm * nplanes);
        disc->project_planes(quad_in, pb, nplanes);
        for (std::size_t p = 0; p < nplanes; ++p)
            disc->project(std::span<const double>(quad_in).subspan(p * nq, nq),
                          std::span<double>(pr).subspan(p * nm, nm));
        EXPECT_LE(max_diff(pb, pr), 1e-10);

        std::vector<double> gxb(nq * nplanes), gyb(nq * nplanes);
        std::vector<double> gxr(nq * nplanes), gyr(nq * nplanes);
        disc->grad_from_modal_planes(modal, gxb, gyb, nplanes);
        for (std::size_t p = 0; p < nplanes; ++p)
            disc->grad_from_modal(std::span<const double>(modal).subspan(p * nm, nm),
                                  std::span<double>(gxr).subspan(p * nq, nq),
                                  std::span<double>(gyr).subspan(p * nq, nq));
        EXPECT_LE(max_diff(gxb, gxr), 1e-12);
        EXPECT_LE(max_diff(gyb, gyr), 1e-12);
    }
}

TEST_P(BatchedOps, HelmholtzApplyMatchesPerElementAssembly) {
    const double lambda = 2.5;
    for (const auto& disc : test_discs(GetParam())) {
        nektar::HelmholtzBC bc; // all-natural: apply() touches every dof
        nektar::HelmholtzPCG solver(disc, lambda, bc);

        const std::size_t n = disc->dofmap().num_global();
        const auto x = test_field(n, 17);
        std::vector<double> y(n), yref(n, 0.0);
        solver.apply(x, y);

        // Reference: scatter, per-element (L + lambda M) x_e by plain loops,
        // gather.
        std::vector<double> xl(disc->modal_size()), yl(disc->modal_size());
        disc->scatter(x, xl);
        for (std::size_t e = 0; e < disc->num_elements(); ++e) {
            const auto& lap = disc->ops(e).laplacian();
            const auto& mass = disc->ops(e).mass();
            const std::size_t nm = disc->ops(e).num_modes();
            const std::size_t off = disc->modal_offset(e);
            for (std::size_t i = 0; i < nm; ++i) {
                double s = 0.0;
                for (std::size_t j = 0; j < nm; ++j)
                    s += (lap(i, j) + lambda * mass(i, j)) * xl[off + j];
                yl[off + i] = s;
            }
        }
        disc->gather_add(yl, yref);
        EXPECT_LE(max_diff(y, yref), 1e-11);
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, BatchedOps, ::testing::Values(3, 5, 8));

/// Matrix sharing across congruent elements: a structured quad mesh has one
/// geometry class, so every element must point at the same ElemMatrices and
/// the group must collapse to a single run.
TEST(BatchedOps, CongruentElementsShareMatrices) {
    const auto m = std::make_shared<mesh::Mesh>(mesh::rectangle_quads(4, 4, 0.0, 1.0, 0.0, 1.0));
    const Discretization disc(m, 5);
    const void* id = disc.ops(0).matrix_identity();
    for (std::size_t e = 1; e < disc.num_elements(); ++e)
        EXPECT_EQ(disc.ops(e).matrix_identity(), id);
    ASSERT_EQ(disc.groups().size(), 1u);
    ASSERT_EQ(disc.groups()[0].runs.size(), 1u);
    EXPECT_EQ(disc.groups()[0].runs[0].count, disc.num_elements());
}

/// The solvers must produce bit-identical states at any thread-pool size:
/// parallel_for only splits independent columns/planes and the virtual-clock
/// charging folds worker counters back as integer sums.
TEST(BatchedOps, FourierStepIsBitwiseThreadCountIndependent) {
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 5);

    nektar::FourierNsOptions o;
    o.dt = 1e-3;
    o.viscosity = 0.05;
    o.num_modes = 4;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;

    struct RunResult {
        std::vector<double> state;
        blaslite::OpCounts counts;
    };
    const auto run = [&](unsigned threads) {
        parallel::set_num_threads(threads);
        nektar::FourierNS ns(disc, o);
        ns.set_initial(
            [](double, double y, double z) {
                return std::sin(std::numbers::pi * y) * (1.0 + 0.5 * std::sin(z));
            },
            [](double x, double, double z) { return 0.1 * std::sin(x) * std::cos(2.0 * z); },
            [](double, double, double) { return 0.0; });
        for (int s = 0; s < 3; ++s) ns.step();
        RunResult r;
        for (int c = 0; c < 3; ++c)
            for (std::size_t p = 0; p < 2 * ns.local_modes(); ++p) {
                const auto q = ns.plane_quad(c, p);
                r.state.insert(r.state.end(), q.begin(), q.end());
            }
        r.counts = ns.breakdown().total_counts();
        return r;
    };

    const unsigned before = parallel::num_threads();
    const RunResult r1 = run(1);
    const RunResult r3 = run(3);
    const RunResult r5 = run(5);
    parallel::set_num_threads(before);

    ASSERT_EQ(r1.state.size(), r3.state.size());
    for (std::size_t i = 0; i < r1.state.size(); ++i) {
        ASSERT_EQ(r1.state[i], r3.state[i]) << "1 vs 3 threads diverge at " << i;
        ASSERT_EQ(r1.state[i], r5.state[i]) << "1 vs 5 threads diverge at " << i;
    }
    // Counter-derived virtual-clock charging must be thread-count invariant.
    EXPECT_EQ(r1.counts.flops, r3.counts.flops);
    EXPECT_EQ(r1.counts.bytes_read, r3.counts.bytes_read);
    EXPECT_EQ(r1.counts.bytes_written, r3.counts.bytes_written);
    EXPECT_EQ(r1.counts.calls, r3.counts.calls);
    EXPECT_EQ(r1.counts.flops, r5.counts.flops);
    EXPECT_EQ(r1.counts.calls, r5.counts.calls);
}

} // namespace
