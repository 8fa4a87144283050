// The statically condensed Helmholtz solvers, direct and PCG, against an
// independent dense reference: the full (uncondensed) global system
// assembled here from the elemental Laplacian and mass matrices through the
// dof map, solved by dense Cholesky.
#include "nektar/helmholtz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "blaslite/counters.hpp"
#include "la/dense.hpp"
#include "mesh/generators.hpp"

namespace {

using nektar::Discretization;
using nektar::HelmholtzBC;
using nektar::HelmholtzDirect;
using nektar::HelmholtzPCG;

/// Absolute CG tolerance of the PCG cases: tight enough that the solution
/// matches the dense reference to 1e-9.
constexpr double kPcgTolerance = 1e-12;

std::shared_ptr<Discretization> disc_for(mesh::Mesh m, std::size_t order) {
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

mesh::Mesh tagged_square_quads(std::size_t n) {
    auto m = mesh::rectangle_quads(n, n, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    return m;
}

/// A 3 x 1 strip: triangles, a quad, triangles.  The triangle group is not
/// contiguous, so its elemental products take the per-element path.
mesh::Mesh hybrid_strip() {
    std::vector<mesh::Vertex> verts = {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                                       {0, 1}, {1, 1}, {2, 1}, {3, 1}};
    std::vector<mesh::Element> elems;
    elems.push_back({spectral::Shape::Triangle, {0, 1, 5, -1}});
    elems.push_back({spectral::Shape::Triangle, {0, 5, 4, -1}});
    elems.push_back({spectral::Shape::Quad, {1, 2, 6, 5}});
    elems.push_back({spectral::Shape::Triangle, {2, 3, 7, -1}});
    elems.push_back({spectral::Shape::Triangle, {2, 7, 6, -1}});
    return mesh::Mesh(std::move(verts), std::move(elems));
}

/// Weak RHS (f, phi) assembled into global dofs.
std::vector<double> assembled_rhs(const Discretization& disc,
                                  const std::function<double(double, double)>& f) {
    std::vector<double> fq(disc.quad_size()), local(disc.modal_size(), 0.0);
    disc.eval_at_quad(f, fq);
    disc.weak_inner(fq, local);
    std::vector<double> rhs(disc.dofmap().num_global(), 0.0);
    disc.gather_add(local, rhs);
    return rhs;
}

/// Dense reference: H = sum_e P^T D (L + lambda M) D P, reduced to the free
/// dofs with the `fixed` values (global dof -> value) lifted to the RHS, and
/// solved by dense Cholesky.  Returns the per-element modal solution.
std::vector<double> dense_reference(const Discretization& disc, double lambda,
                                    std::vector<double> rhs,
                                    const std::vector<std::pair<int, double>>& fixed) {
    const std::size_t n = disc.dofmap().num_global();
    la::DenseMatrix h(n, n);
    for (std::size_t e = 0; e < disc.num_elements(); ++e) {
        const auto& map = disc.dofmap().element_map(e);
        const auto& ops = disc.ops(e);
        for (std::size_t i = 0; i < ops.num_modes(); ++i)
            for (std::size_t j = 0; j < ops.num_modes(); ++j)
                h(static_cast<std::size_t>(map[i].global),
                  static_cast<std::size_t>(map[j].global)) +=
                    map[i].sign * map[j].sign * (ops.laplacian()(i, j) + lambda * ops.mass()(i, j));
    }
    std::vector<double> u(n, 0.0);
    std::vector<char> is_fixed(n, 0);
    for (const auto& [d, v] : fixed) {
        u[static_cast<std::size_t>(d)] = v;
        is_fixed[static_cast<std::size_t>(d)] = 1;
    }
    std::vector<std::size_t> free;
    for (std::size_t d = 0; d < n; ++d)
        if (!is_fixed[d]) free.push_back(d);
    la::DenseMatrix hff(free.size(), free.size());
    std::vector<double> b(free.size());
    for (std::size_t a = 0; a < free.size(); ++a) {
        b[a] = rhs[free[a]];
        for (std::size_t d = 0; d < n; ++d) b[a] -= h(free[a], d) * u[d];
        for (std::size_t c = 0; c < free.size(); ++c) hff(a, c) = h(free[a], free[c]);
    }
    EXPECT_TRUE(la::cholesky_factor(hff));
    la::cholesky_solve(hff, b);
    for (std::size_t a = 0; a < free.size(); ++a) u[free[a]] = b[a];
    std::vector<double> modal(disc.modal_size());
    disc.scatter(u, modal);
    return modal;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
    EXPECT_EQ(a.size(), b.size());
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

/// The first element's first vertex dof: the one pin_first_dof constrains.
int pinned_dof(const Discretization& disc) {
    return disc.dofmap().element_map(0)[disc.ops(0).expansion().vertex_mode(0)].global;
}

/// Global-numbered values of a modal field (each dof read from any element
/// that holds it).
std::vector<double> modal_to_global(const Discretization& disc, const std::vector<double>& modal) {
    std::vector<double> u(disc.dofmap().num_global(), 0.0);
    for (std::size_t e = 0; e < disc.num_elements(); ++e) {
        const auto& map = disc.dofmap().element_map(e);
        for (std::size_t i = 0; i < map.size(); ++i)
            u[static_cast<std::size_t>(map[i].global)] =
                map[i].sign * modal[disc.modal_offset(e) + i];
    }
    return u;
}

template <class Solver>
Solver make_solver(const std::shared_ptr<Discretization>& disc, double lambda, HelmholtzBC bc) {
    if constexpr (std::is_same_v<Solver, HelmholtzPCG>)
        return HelmholtzPCG(disc, lambda, std::move(bc),
                            {.max_iterations = 5000, .tolerance = kPcgTolerance});
    else
        return HelmholtzDirect(disc, lambda, std::move(bc));
}

/// For the PCG solver: the full, uncondensed system's residual b - H u over
/// the free dofs stays within the CG tolerance after back-substitution.
template <class Solver>
void expect_full_residual_within_tolerance(const Solver& solver, const std::vector<double>& rhs,
                                           const std::vector<double>& u_modal) {
    if constexpr (std::is_same_v<Solver, HelmholtzPCG>) {
        const Discretization& disc = solver.disc();
        const auto u = modal_to_global(disc, u_modal);
        std::vector<double> hu(u.size());
        solver.apply(u, hu);
        std::vector<char> fixed(u.size(), 0);
        for (int d : solver.dirichlet_dofs()) fixed[static_cast<std::size_t>(d)] = 1;
        double rr = 0.0;
        for (std::size_t i = 0; i < u.size(); ++i)
            if (!fixed[i]) rr += (rhs[i] - hu[i]) * (rhs[i] - hu[i]);
        EXPECT_LE(std::sqrt(rr), kPcgTolerance);
    }
}

/// Non-homogeneous Dirichlet data on the Wall edges, a pinned all-Neumann
/// Poisson problem, and an unpinned all-Neumann Helmholtz problem, each
/// against the dense reference.
template <class Solver>
void expect_matches_dense_reference(const std::shared_ptr<Discretization>& disc) {
    const auto f = [](double x, double y) { return std::exp(x) * (1.0 + y); };
    {
        const HelmholtzBC bc{.dirichlet = {mesh::BoundaryTag::Wall}};
        const Solver solver = make_solver<Solver>(disc, 2.0, bc);
        const auto g = [](double x, double y) { return 0.25 * x - 0.5 * y + x * y; };
        const auto fixed = disc->dofmap().dirichlet_values(
            [](mesh::BoundaryTag t) { return t == mesh::BoundaryTag::Wall; }, g);
        ASSERT_EQ(solver.dirichlet_dofs().size(), fixed.size());
        const auto u = solver.solve_global(assembled_rhs(*disc, f), solver.dirichlet_vector(g));
        EXPECT_LT(max_diff(u, dense_reference(*disc, 2.0, assembled_rhs(*disc, f), fixed)), 1e-9)
            << "Dirichlet";
        expect_full_residual_within_tolerance(solver, assembled_rhs(*disc, f), u);
    }
    {
        const Solver solver =
            make_solver<Solver>(disc, 0.0, {.dirichlet = {}, .pin_first_dof = true});
        ASSERT_EQ(solver.dirichlet_dofs(), std::vector<int>{pinned_dof(*disc)});
        const auto fp = [](double x, double y) {
            return std::cos(std::numbers::pi * x) * std::cos(std::numbers::pi * y);
        };
        std::vector<double> fq(disc->quad_size());
        disc->eval_at_quad(fp, fq);
        const auto u = solver.solve(fq);
        EXPECT_LT(max_diff(u, dense_reference(*disc, 0.0, assembled_rhs(*disc, fp),
                                              {{pinned_dof(*disc), 0.0}})),
                  1e-9)
            << "pinned all-Neumann";
        expect_full_residual_within_tolerance(solver, assembled_rhs(*disc, fp), u);
    }
    {
        const Solver solver = make_solver<Solver>(disc, 3.0, {});
        EXPECT_TRUE(solver.dirichlet_dofs().empty());
        const auto u = solver.solve_global(
            assembled_rhs(*disc, f),
            std::vector<double>(disc->dofmap().num_global(), 0.0));
        EXPECT_LT(max_diff(u, dense_reference(*disc, 3.0, assembled_rhs(*disc, f), {})), 1e-9)
            << "all-Neumann";
        expect_full_residual_within_tolerance(solver, assembled_rhs(*disc, f), u);
    }
}

class CondensedOrders : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CondensedOrders, MatchesFullDirectSolve) {
    const auto [p, tris] = GetParam();
    auto m = tris ? mesh::rectangle_tris(3, 3, 0.0, 1.0, 0.0, 1.0)
                  : mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    SCOPED_TRACE("P=" + std::to_string(p) + " tris=" + std::to_string(tris));
    expect_matches_dense_reference<HelmholtzDirect>(
        disc_for(std::move(m), static_cast<std::size_t>(p)));
}

TEST_P(CondensedOrders, PcgMatchesFullDirectSolve) {
    const auto [p, tris] = GetParam();
    auto m = tris ? mesh::rectangle_tris(3, 3, 0.0, 1.0, 0.0, 1.0)
                  : mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    SCOPED_TRACE("P=" + std::to_string(p) + " tris=" + std::to_string(tris));
    expect_matches_dense_reference<HelmholtzPCG>(
        disc_for(std::move(m), static_cast<std::size_t>(p)));
}

INSTANTIATE_TEST_SUITE_P(Meshes, CondensedOrders,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(false, true)));

class CondensedHybridOrders : public ::testing::TestWithParam<int> {};

TEST_P(CondensedHybridOrders, MatchesFullDirectSolve) {
    auto m = hybrid_strip();
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc = disc_for(std::move(m), static_cast<std::size_t>(GetParam()));
    ASSERT_EQ(disc->groups().size(), 2u);
    ASSERT_FALSE(disc->groups().front().contiguous);
    expect_matches_dense_reference<HelmholtzDirect>(disc);
}

TEST_P(CondensedHybridOrders, PcgMatchesFullDirectSolve) {
    auto m = hybrid_strip();
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc = disc_for(std::move(m), static_cast<std::size_t>(GetParam()));
    ASSERT_FALSE(disc->groups().front().contiguous);
    expect_matches_dense_reference<HelmholtzPCG>(disc);
}

INSTANTIATE_TEST_SUITE_P(Hybrid, CondensedHybridOrders, ::testing::Range(1, 9));

TEST(Condensed, ShrinksTheGlobalSystem) {
    const auto disc = disc_for(tagged_square_quads(4), 7);
    const HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    // 16 elements x 36 interior modes eliminated.
    EXPECT_EQ(solver.boundary_dofs() + 16 * 36, disc->dofmap().num_global());
    EXPECT_LT(solver.boundary_dofs(), disc->dofmap().num_global() / 2);
    EXPECT_LT(solver.bandwidth(), disc->dofmap().bandwidth());
}

TEST(Condensed, ManufacturedSolutionAccuracy) {
    const auto disc = disc_for(tagged_square_quads(3), 6);
    const HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    std::vector<double> f(disc->quad_size());
    disc->eval_at_quad(
        [](double x, double y) {
            return (2.0 * std::numbers::pi * std::numbers::pi + 1.0) *
                   std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
        },
        f);
    const auto sol = solver.solve(f);
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(sol, uq);
    EXPECT_LT(disc->l2_error(uq, [](double x, double y) {
                  return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
              }),
              1e-4);
}

TEST(Condensed, AllNeumannWithPin) {
    auto m = mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0); // untagged
    const auto disc = disc_for(std::move(m), 4);
    const auto f = [](double x, double y) { return x - y * y; };
    // Helmholtz with lambda > 0 is nonsingular even without Dirichlet data.
    const HelmholtzDirect helm(disc, 3.0, {});
    std::vector<double> fq(disc->quad_size());
    disc->eval_at_quad(f, fq);
    EXPECT_LT(max_diff(helm.solve(fq), dense_reference(*disc, 3.0, assembled_rhs(*disc, f), {})),
              1e-9);
    // Poisson needs the pin, and then matches the reference pinned alike.
    const HelmholtzDirect poisson(disc, 0.0, {.dirichlet = {}, .pin_first_dof = true});
    EXPECT_LT(max_diff(poisson.solve(fq), dense_reference(*disc, 0.0, assembled_rhs(*disc, f),
                                                          {{pinned_dof(*disc), 0.0}})),
              1e-9);
}

TEST(Condensed, LowestOrderHasNoInteriors) {
    // P = 1: no bubbles to condense; the solver must degenerate gracefully
    // to the full vertex system.
    const auto disc = disc_for(tagged_square_quads(4), 1);
    const HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    EXPECT_EQ(solver.boundary_dofs(), disc->dofmap().num_global());
    std::vector<double> f(disc->quad_size(), 1.0);
    const auto sol = solver.solve(f);
    for (double v : sol) EXPECT_TRUE(std::isfinite(v));
}

/// Flops of one solve_global, from the formula documented on it.
std::uint64_t documented_solve_flops(const Discretization& disc, const HelmholtzDirect& s) {
    std::uint64_t flops = 4 * s.boundary_dofs() * (s.bandwidth() + 1);
    for (const nektar::ElemGroup& g : disc.groups()) {
        const std::uint64_t nm = g.exp->num_modes();
        const std::uint64_t nmb = g.exp->num_boundary_modes();
        const std::uint64_t ni = nm - nmb;
        if (ni == 0) continue;
        for (const nektar::ElemGroup::MatrixRun& run : g.runs) {
            const std::uint64_t c = run.count;
            flops += g.contiguous ? (2 * nm * ni * c + nm * c) + (2 * ni * nmb * c + ni * c)
                                  : c * ((2 * ni * nm + ni) + (2 * nmb * ni + nmb));
        }
    }
    return flops;
}

TEST(Condensed, SolveChargesBandedPlusElementalCounts) {
    for (const bool hybrid : {false, true}) {
        auto m = hybrid ? hybrid_strip() : tagged_square_quads(3);
        m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
        const auto disc = disc_for(std::move(m), 6);
        const HelmholtzDirect solver(disc, 1.5, {.dirichlet = {mesh::BoundaryTag::Wall}});
        auto rhs = assembled_rhs(*disc, [](double x, double y) { return x + y; });
        const auto bvals = solver.dirichlet_vector([](double x, double) { return x; });
        const blaslite::CountScope scope;
        const auto u = solver.solve_global(std::move(rhs), bvals);
        const blaslite::OpCounts counts = scope.delta();
        EXPECT_EQ(u.size(), disc->modal_size());
        EXPECT_EQ(counts.flops, documented_solve_flops(*disc, solver)) << "hybrid=" << hybrid;
        // On the single-group quad mesh: two dgemms per matrix run and the
        // banded solve.
        if (!hybrid) {
            EXPECT_EQ(counts.calls, 1 + 2 * disc->groups().front().runs.size());
        }
    }
}

TEST(Condensed, FactorBytesCountsTheBandAndTheClassMatrices) {
    // 2 x 2 congruent quads at order 3: one matrix class with nm = 16 modes,
    // nmb = 12 boundary and ni = 4 interior modes.
    const auto disc = disc_for(tagged_square_quads(2), 3);
    const HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    // 9 vertices + 12 edges x 2 modes.
    EXPECT_EQ(solver.boundary_dofs(), 33u);
    const std::size_t band = solver.boundary_dofs() * (solver.bandwidth() + 1);
    EXPECT_EQ(solver.factor_bytes(), (band + 16 * 4 + 4 * 12) * sizeof(double));
    EXPECT_EQ(solver.bandwidth(), 21u);
    EXPECT_EQ(solver.factor_bytes(), 6704u);
}

TEST(CondensedPcg, ThrowsWithItsResidualWhenCgStopsShort) {
    const auto disc = disc_for(tagged_square_quads(3), 5);
    const HelmholtzPCG solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}},
                              {.max_iterations = 1, .tolerance = 1e-12});
    std::vector<double> f(disc->quad_size(), 1.0);
    try {
        (void)solver.solve(f);
        FAIL() << "an unconverged solve must throw";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("1 iterations"), std::string::npos) << msg;
        EXPECT_NE(msg.find("residual"), std::string::npos) << msg;
    }
    EXPECT_EQ(solver.last_iterations(), 1u);
}

} // namespace
