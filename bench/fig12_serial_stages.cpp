/// Figure 12: percentage of each of the 7 stages within a serial bluff-body
/// time step, for the SGI Onyx2 and the Pentium II.  The paper finds "matrix
/// inversions account for 60% of the total CPU time, with the setup of the
/// right hand side ... another 20%" and <1-2% difference between machines.
#include <cstdio>
#include <memory>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_serial.hpp"

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("fig12_serial_stages", argc, argv);
    mesh::BluffBodyParams p;
    p.n_upstream = 6;
    p.n_wake = 10;
    p.n_body = 3;
    p.n_side = 4;
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p)), 6);
    nektar::SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.trace = cli.trace;
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    nektar::SerialNS2d ns(disc, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    ns.step();
    ns.breakdown() = {};
    for (int s = 0; s < 3; ++s) ns.step();

    const std::size_t field_bytes = disc->quad_size() * sizeof(double);
    const std::size_t solver_bytes =
        ns.velocity_solver_cache().get(opts.time_order).front().factor_bytes();
    const auto shapes = app_model::solver_shapes(field_bytes, solver_bytes);

    std::printf("Figure 12: CPU time percentage of each stage within a time step\n\n");
    perf::RunReport rep = perf::report("fig12_serial_stages", &ns.breakdown());
    // Paper's pie values for reference.
    const double paper_onyx[8] = {0, 4, 11, 3, 9, 30, 12, 31};
    const double paper_pii[8] = {0, 3, 10, 5, 8, 31, 11, 32};
    for (const char* machine : {"Onyx2", "Muses"}) {
        if (!cli.machine_selected(machine)) continue;
        const auto comp = app_model::compute_stage_seconds(ns.breakdown(),
                                                           machine::by_name(machine), shapes);
        double total = 0.0;
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) total += comp[s];
        std::printf("%s (paper: %s)\n", machine,
                    std::string(machine) == "Onyx2" ? "SGI Onyx 2" : "Pentium PII, 450Mhz");
        benchutil::Table table({"stage", "description", "ours %", "paper %"}, 30);
        table.print_header();
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            const double* ref = std::string(machine) == "Onyx2" ? paper_onyx : paper_pii;
            table.print_row({std::to_string(s), perf::stage_name(s),
                             benchutil::fmt(100.0 * comp[s] / total, "%.0f"),
                             benchutil::fmt(ref[s], "%.0f")});
            perf::Case kase;
            kase.labels["machine"] = machine;
            kase.labels["stage_name"] = perf::stage_name(s);
            kase.values["stage"] = static_cast<double>(s);
            kase.values["cpu_percent"] = 100.0 * comp[s] / total;
            kase.values["paper_percent"] = ref[s];
            rep.cases.push_back(std::move(kase));
        }
        std::printf("\n");
    }
    cli.finish(std::move(rep));
    return 0;
}
