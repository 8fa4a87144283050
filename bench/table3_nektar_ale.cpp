/// Table 3: parallel NekTar-ALE flapping-wing run, CPU/wall-clock seconds
/// per time step for P = 16..128 on five systems.  Strong scaling: the dof
/// count is fixed (paper: 4,062,720 dof, 15,870 elements, order 4) so
/// timings fall with P.  Shape to reproduce: myrinet fastest at 16, slightly
/// slower than the SP2-Silver at 64; AP3000 and SP2-Thin2 trail badly.
#include <cmath>
#include <cstdio>
#include <memory>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_ale.hpp"
#include "partition/partition.hpp"

namespace {

struct AleRun {
    std::vector<perf::StageBreakdown> bds; ///< per rank
    simmpi::CommLog log;                   ///< rank 0
    double hidden_seconds = 0.0;           ///< probe-priced comm hidden behind compute
    std::size_t field_bytes = 0;
    std::size_t solver_bytes = 0;
};

netsim::NetworkModel probe_net() {
    netsim::NetworkModel probe;
    probe.name = "probe";
    probe.latency_us = 10.0;
    probe.bandwidth_mbps = 100.0;
    return probe;
}

AleRun run_ale(int nprocs, const mesh::Mesh& m, const std::vector<int>& part,
               bool overlap_gs, bool trace = false) {
    AleRun out;
    out.bds.resize(static_cast<std::size_t>(nprocs));
    simmpi::World world(nprocs, probe_net());
    const auto reports = world.run([&](simmpi::Comm& c) {
        nektar::AleOptions opts;
        opts.dt = 2e-3;
        opts.viscosity = 0.01;
        opts.cg.tolerance = 1e-8;
        opts.overlap_gs = overlap_gs;
        opts.trace = trace;
        opts.body_velocity = [](double t) { return 0.3 * std::sin(4.0 * t); };
        opts.u_bc = [](double x, double y, double) {
            const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
            return body ? 0.0 : 1.0;
        };
        opts.v_bc = [&opts](double x, double y, double t) {
            const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
            return body ? opts.body_velocity(t) : 0.0;
        };
        nektar::AleNS2d ns(m, 4, opts, c.size() > 1 ? &c : nullptr,
                           c.size() > 1 ? &part : nullptr);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        ns.step(); // bootstrap (first-order start) excluded
        ns.breakdown() = {};
        ns.step();
        ns.step();
        out.bds[static_cast<std::size_t>(c.rank())] = ns.breakdown();
        if (c.rank() == 0) {
            out.field_bytes = ns.disc().quad_size() * sizeof(double);
            // The condensed PCG path streams each element's Schur block
            // (boundary modes squared) every iteration.
            std::size_t mat_bytes = 0;
            for (std::size_t e = 0; e < ns.disc().num_elements(); ++e) {
                const std::size_t nmb = ns.disc().ops(e).expansion().num_boundary_modes();
                mat_bytes += nmb * nmb * sizeof(double);
            }
            out.solver_bytes = mat_bytes;
        }
    });
    out.log = reports[0].log;
    for (const auto& [stage, hidden] : reports[0].overlap_log) {
        out.bds[0].add_comm_overlap(static_cast<std::size_t>(stage), hidden);
        out.hidden_seconds += hidden;
    }
    return out;
}

const std::vector<app_model::Platform>& platforms() {
    static const std::vector<app_model::Platform> p = {
        {"AP3000", "AP3000", "AP3000"},
        {"NCSA", "NCSA", "NCSA"},
        {"SP2 Silver", "SP2-Silver", "SP2-Silver internode"},
        {"SP2 Thin2", "SP2-Thin2", "SP2-thin2"},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    return p;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("table3_nektar_ale", argc, argv);
    std::printf("Table 3: NekTar-ALE flapping-body run, CPU/wall seconds per step.\n");
    std::printf("Strong scaling on a fixed mesh; PCG + gather-scatter communications\n");
    std::printf("(no MPI_Alltoall), exactly the paper's §4.2.2 configuration.\n\n");
    std::printf("Paper, P=16: AP3000 43.2/43.7  NCSA 25.7/25.8  Silver 29.6/29.7  "
                "Thin2 65.5/69.2  RR-myr 25.4/25.4\n\n");

    const auto m = mesh::flapping_body_mesh(3);
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    std::printf("Mesh: %s, order 4\n\n", m.summary().c_str());

    std::vector<app_model::Platform> selected;
    for (const auto& pl : platforms())
        if (cli.machine_selected(pl.machine) && cli.net_selected(pl.network))
            selected.push_back(pl);
    if (selected.empty()) {
        std::fprintf(stderr, "table3_nektar_ale: no platform matches the given "
                             "--machine/--net filters\n");
        return 2;
    }

    std::vector<std::string> headers = {"P"};
    for (const auto& pl : selected) headers.push_back(pl.label);
    benchutil::Table table(headers, 16);
    table.print_header();

    perf::RunReport rep = perf::report("table3_nektar_ale");
    perf::StageBreakdown last_bd;
    std::size_t last_field_bytes = 0, last_solver_bytes = 0;
    bool traced = false; // --trace records the first (smallest-P) run only
    for (int nprocs : cli.rank_sweep({4, 8, 16, 32})) {
        const auto part = partition::partition_graph(g, nprocs);
        const bool trace_this = cli.trace && !traced;
        const AleRun run = run_ale(nprocs, m, part, /*overlap_gs=*/false, trace_this);
        // One clean traced sweep: the comm-layer spans are gated only by the
        // global tracer, so stop recording after the dedicated run.
        if (trace_this) obs::tracer().disable();
        traced = true;
        last_bd = run.bds[0];
        last_field_bytes = run.field_bytes;
        last_solver_bytes = run.solver_bytes;
        const auto shapes = app_model::solver_shapes(run.field_bytes, run.solver_bytes);
        std::vector<std::string> row = {std::to_string(nprocs)};
        for (const auto& pl : selected) {
            const auto& mm = machine::by_name(pl.machine);
            const auto& net = netsim::by_name(pl.network);
            // CPU: mean across ranks; wall: slowest rank + communication.
            double mean_cpu = 0.0, max_cpu = 0.0;
            for (const auto& bd : run.bds) {
                const auto comp = app_model::compute_stage_seconds(bd, mm, shapes);
                double c = 0.0;
                for (std::size_t s = 1; s <= perf::kNumStages; ++s) c += comp[s];
                c /= bd.steps;
                mean_cpu += c;
                max_cpu = std::max(max_cpu, c);
            }
            mean_cpu /= static_cast<double>(run.bds.size());
            const double comm =
                simmpi::price_log(run.log, net, nprocs) / run.bds[0].steps;
            const double wall = max_cpu + comm;
            const double cpu = mean_cpu + comm * net.cpu_poll_fraction;
            row.push_back(benchutil::fmt(cpu, "%.2f") + "/" + benchutil::fmt(wall, "%.2f"));
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["cpu_seconds_per_step"] = cpu;
            kase.values["wall_seconds_per_step"] = wall;
            kase.values["comm_seconds_per_step"] = comm;
            rep.cases.push_back(std::move(kase));
        }
        table.print_row(row);
    }
    std::printf("\n(reduced mesh; compare the scaling trend and platform ordering with\n"
                "the paper's Table 3, where timings drop with P at fixed dof count)\n");

    // GPU-era projection of the last sweep's rank-0 step (see table2 for the
    // column semantics); the ALE step's PCG-heavy stages are latency-bound,
    // exactly where the device roofline gains the least.
    std::printf("\nGPU-era projection (rank-0 seconds/step on accelerator rooflines;\n"
                "device / +2 field crossings per step / +2 crossings per stage)\n\n");
    {
        const auto shapes = app_model::solver_shapes(last_field_bytes, last_solver_bytes);
        benchutil::Table at({"accelerator", "device", "resident", "staged"}, 14);
        at.print_header();
        for (const auto& acc : machine::accelerator_roster()) {
            const auto proj =
                app_model::project_accelerated(last_bd, acc, shapes, last_field_bytes);
            at.print_row({acc.name, benchutil::fmt(proj.device, "%.3g"),
                          benchutil::fmt(proj.resident, "%.3g"),
                          benchutil::fmt(proj.staged, "%.3g")});
            perf::Case kase;
            kase.labels["accelerator"] = acc.name;
            kase.values["device_seconds_per_step"] = proj.device;
            kase.values["resident_seconds_per_step"] = proj.resident;
            kase.values["staged_seconds_per_step"] = proj.staged;
            rep.cases.push_back(std::move(kase));
        }
    }

    // Overlap ablation: the gather-scatter pairwise stage over posted
    // irecvs (per-neighbour packing overlapped with transfers in flight)
    // against the blocking sendrecv loop.  Ethernet included here because a
    // kernel-TCP stack (poll < 1) is exactly where overlap pays off.
    std::printf("\nNonblocking gather-scatter exchange vs blocking sendrecv\n");
    std::printf("(CPU/wall s per step; 'recov' = wall seconds recovered per step)\n\n");
    const std::vector<app_model::Platform> ablation_plats = {
        {"NCSA", "NCSA", "NCSA"},
        {"RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    for (int nprocs : {8, 16}) {
        const auto part = partition::partition_graph(g, nprocs);
        const AleRun blk = run_ale(nprocs, m, part, /*overlap_gs=*/false);
        const AleRun ovl = run_ale(nprocs, m, part, /*overlap_gs=*/true);
        const auto shapes = app_model::solver_shapes(ovl.field_bytes, ovl.solver_bytes);
        const double rho = app_model::overlap_efficiency(
            ovl.hidden_seconds,
            simmpi::price_log_split(ovl.log, probe_net(), nprocs).overlapped);
        std::printf("P = %d  (hidden fraction of overlapped comm: %.0f%%)\n", nprocs,
                    100.0 * rho);
        benchutil::Table table2({"network", "blocking", "overlapped", "recov"}, 16);
        table2.print_header();
        for (const auto& pl : ablation_plats) {
            const auto& mm = machine::by_name(pl.machine);
            const auto& net = netsim::by_name(pl.network);
            double mean_cpu = 0.0, max_cpu = 0.0;
            for (const auto& bd : ovl.bds) {
                const auto comp = app_model::compute_stage_seconds(bd, mm, shapes);
                double c = 0.0;
                for (std::size_t s = 1; s <= perf::kNumStages; ++s) c += comp[s];
                c /= bd.steps;
                mean_cpu += c;
                max_cpu = std::max(max_cpu, c);
            }
            mean_cpu /= static_cast<double>(ovl.bds.size());
            const double comm_blk =
                simmpi::price_log(blk.log, net, nprocs) / blk.bds[0].steps;
            const auto split = simmpi::price_log_split(ovl.log, net, nprocs);
            const double comm_ovl = split.total() / ovl.bds[0].steps;
            const double recov = app_model::recovered_seconds(
                rho, split.overlapped / ovl.bds[0].steps, net.cpu_poll_fraction);
            table2.print_row(
                {pl.label,
                 benchutil::fmt(mean_cpu + comm_blk * net.cpu_poll_fraction, "%.2f") + "/" +
                     benchutil::fmt(max_cpu + comm_blk, "%.2f"),
                 benchutil::fmt(mean_cpu + comm_ovl * net.cpu_poll_fraction, "%.2f") + "/" +
                     benchutil::fmt(max_cpu + comm_ovl - recov, "%.2f"),
                 benchutil::fmt(recov, "%.2f")});
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.labels["ablation"] = "overlap_gs";
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["hidden_fraction"] = rho;
            kase.values["blocking_wall_seconds_per_step"] = max_cpu + comm_blk;
            kase.values["overlapped_wall_seconds_per_step"] = max_cpu + comm_ovl - recov;
            kase.values["recovered_seconds_per_step"] = recov;
            rep.cases.push_back(std::move(kase));
        }
        std::printf("\n");
    }
    // Stage rows come from rank 0 of the last Table-3 sweep run.
    perf::RunReport out = perf::report("table3_nektar_ale", &last_bd);
    out.cases = std::move(rep.cases);
    cli.finish(std::move(out));
    return 0;
}
