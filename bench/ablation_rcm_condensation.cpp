/// Ablation: the two design choices behind the paper's fast direct solves —
/// RCM bandwidth reduction and boundary-first ordering / static condensation
/// (Figure 10).  Prints system size, half-bandwidth, factor and per-solve
/// flop counts for (a) natural ordering, (b) RCM, (c) RCM + static
/// condensation (its solve count includes the elemental condense and
/// back-solve products), on the bluff-body mesh.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "blaslite/counters.hpp"
#include "mesh/generators.hpp"
#include "nektar/helmholtz.hpp"

namespace {

double factor_flops(std::size_t n, std::size_t kd) {
    // Banded Cholesky ~ n * kd^2 flops.
    return static_cast<double>(n) * static_cast<double>(kd) * static_cast<double>(kd);
}
double solve_flops(std::size_t n, std::size_t kd) { return 4.0 * static_cast<double>(n * (kd + 1)); }

/// Flops of one condensed solve, as charged: the boundary band solve plus
/// the elemental condense and back-solve products.
double condensed_solve_flops(const nektar::HelmholtzDirect& s) {
    const std::size_t n = s.disc().dofmap().num_global();
    const blaslite::CountScope scope;
    (void)s.solve_global(std::vector<double>(n, 0.0), std::vector<double>(n, 0.0));
    return static_cast<double>(scope.delta().flops);
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("ablation_rcm_condensation", argc, argv);
    mesh::BluffBodyParams p;
    p.n_upstream = 5;
    p.n_wake = 8;
    p.n_body = 2;
    p.n_side = 3;
    const auto base = std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p));

    std::printf("Ablation: orderings and static condensation for the banded direct "
                "solver (Figure 10's design space)\n\n");
    benchutil::Table table({"order P", "variant", "dofs", "halfband", "factor Mflop",
                            "solve Mflop"},
                           14);
    table.print_header();
    perf::RunReport rep = perf::report("ablation_rcm_condensation");
    for (std::size_t order : {4u, 6u, 8u}) {
        const auto natural = std::make_shared<nektar::Discretization>(base, order, false);
        const auto rcm = std::make_shared<nektar::Discretization>(base, order, true);
        const nektar::HelmholtzBC bc{.dirichlet = {mesh::BoundaryTag::Inflow,
                                                   mesh::BoundaryTag::Body}};
        const nektar::HelmholtzDirect cond(rcm, 1.0, bc);

        const auto row = [&](const char* name, std::size_t n, std::size_t kd, double solve) {
            table.print_row({std::to_string(order), name, std::to_string(n),
                             std::to_string(kd), benchutil::fmt(factor_flops(n, kd) / 1e6),
                             benchutil::fmt(solve / 1e6, "%.3f")});
            perf::Case kase;
            kase.labels["variant"] = name;
            kase.values["order"] = static_cast<double>(order);
            kase.values["dofs"] = static_cast<double>(n);
            kase.values["halfband"] = static_cast<double>(kd);
            kase.values["factor_mflop"] = factor_flops(n, kd) / 1e6;
            kase.values["solve_mflop"] = solve / 1e6;
            rep.cases.push_back(std::move(kase));
        };
        const auto full_row = [&](const char* name, const nektar::Discretization& d) {
            const std::size_t n = d.dofmap().num_global(), kd = d.dofmap().bandwidth();
            row(name, n, kd, solve_flops(n, kd));
        };
        full_row("natural", *natural);
        full_row("RCM", *rcm);
        row("RCM+condensed", cond.boundary_dofs(), cond.bandwidth(),
            condensed_solve_flops(cond));
    }
    std::printf("\nRCM cuts the half-bandwidth; condensation then removes every\n"
                "interior mode from the global system — together they are why the\n"
                "paper's 'direct solver, utilising the symmetric and banded nature\n"
                "of the matrix' carries 60%% of each DNS step so cheaply.\n");
    cli.finish(std::move(rep));
    return 0;
}
