#include "nektar/ns_ale.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mesh/generators.hpp"
#include "partition/partition.hpp"

namespace {

using nektar::AleNS2d;
using nektar::AleOptions;

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

mesh::Mesh flap_mesh() { return mesh::flapping_body_mesh(1); }

/// Uniform free stream prescribed on *every* boundary (including the moving
/// body, physics suspended): the ALE formulation must preserve u = 1 exactly
/// as the mesh deforms — the classic geometric-conservation check.
TEST(AleNS, FreeStreamPreservationUnderMeshMotion) {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.4 * std::cos(8.0 * t); };
    opts.velocity_bc.dirichlet = {mesh::BoundaryTag::Inflow, mesh::BoundaryTag::Side,
                                  mesh::BoundaryTag::Body, mesh::BoundaryTag::Wall};
    opts.u_bc = [](double, double, double) { return 1.0; };
    opts.v_bc = [](double, double, double) { return 0.0; };
    AleNS2d ns(flap_mesh(), 4, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    for (int s = 0; s < 10; ++s) ns.step();
    // The mesh must actually have moved...
    double max_w = 0.0;
    for (double w : ns.mesh_velocity_quad()) max_w = std::max(max_w, std::abs(w));
    EXPECT_GT(max_w, 0.05);
    // ...while the free stream stays put.
    const double err =
        ns.disc().l2_error(ns.u_quad(), [](double, double) { return 1.0; });
    EXPECT_LT(err, 5e-3);
    const double verr =
        ns.disc().l2_error(ns.v_quad(), [](double, double) { return 0.0; });
    EXPECT_LT(verr, 5e-3);
}

TEST(AleNS, ZeroMotionMatchesFixedMeshPhysics) {
    // With body_velocity = 0 the ALE solver is an ordinary fixed-mesh solver;
    // a Kovasznay steady state must hold just as in the serial code.
    const double re = 40.0;
    const double lam = re / 2.0 - std::sqrt(re * re / 4.0 + 4.0 * std::numbers::pi * std::numbers::pi);
    const auto ku = [=](double x, double y) {
        return 1.0 - std::exp(lam * x) * std::cos(2.0 * std::numbers::pi * y);
    };
    const auto kv = [=](double x, double y) {
        return lam / (2.0 * std::numbers::pi) * std::exp(lam * x) *
               std::sin(2.0 * std::numbers::pi * y);
    };
    auto m = mesh::rectangle_quads(3, 2, -0.5, 1.0, -0.5, 0.5);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 1.0 / re;
    opts.u_bc = [&](double x, double y, double) { return ku(x, y); };
    opts.v_bc = [&](double x, double y, double) { return kv(x, y); };
    AleNS2d ns(m, 6, opts);
    ns.set_initial(ku, kv);
    for (int s = 0; s < 50; ++s) ns.step();
    EXPECT_LT(ns.disc().l2_error(ns.u_quad(), ku), 0.02);
    EXPECT_LT(ns.disc().l2_error(ns.v_quad(), kv), 0.02);
}

double kinetic_energy(const AleNS2d& ns) {
    std::vector<double> ke(ns.u_quad().size());
    for (std::size_t i = 0; i < ke.size(); ++i)
        ke[i] = ns.u_quad()[i] * ns.u_quad()[i] + ns.v_quad()[i] * ns.v_quad()[i];
    return ns.disc().integrate(ke);
}

class AleRanks : public ::testing::TestWithParam<int> {};

TEST_P(AleRanks, ParallelMatchesSerialEnergy) {
    const int p = GetParam();
    const auto m = flap_mesh();
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
    opts.cg.tolerance = 1e-12; // tight so serial/parallel iterates agree
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    const int nsteps = 4;

    AleNS2d serial(m, 3, opts);
    serial.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    for (int s = 0; s < nsteps; ++s) serial.step();
    const double e_serial = kinetic_energy(serial);

    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, p);
    simmpi::World world(p, test_net());
    std::vector<double> energies(static_cast<std::size_t>(p), 0.0);
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 3, opts, &c, &part);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        for (int s = 0; s < nsteps; ++s) ns.step();
        energies[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(kinetic_energy(ns));
    });
    for (double e : energies) EXPECT_NEAR(e, e_serial, 2e-5 * std::abs(e_serial)) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ranks, AleRanks, ::testing::Values(2, 4));

TEST(AleNS, PcgIterationCountsReported) {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    AleNS2d ns(flap_mesh(), 3, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    // The very first step starts from a uniform field whose pressure RHS is
    // zero; the second step sees the developing boundary layer.
    ns.step();
    ns.step();
    EXPECT_GT(ns.last_pressure_iterations(), 3u); // a real iterative solve
}

TEST(AleNS, StageBreakdownWeightsOnSolves) {
    // Paper Figures 15-16: stages (b) pressure and (c) Helmholtz dominate.
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.2 * std::sin(4.0 * t); };
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    AleNS2d ns(flap_mesh(), 4, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    ns.breakdown() = {};
    for (int s = 0; s < 3; ++s) ns.step();
    const auto& bd = ns.breakdown();
    const auto total = bd.total_counts();
    const auto solves = bd.counts[5].flops + bd.counts[7].flops;
    EXPECT_GT(solves, total.flops / 2) << "PCG solves must dominate the ALE step";
}

AleOptions flapping_options() {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    return opts;
}

std::uint64_t allreduce_count(const simmpi::CommLog& log) {
    std::uint64_t n = 0;
    for (const auto& [stage, events] : log)
        for (const auto& [key, count] : events)
            if (key.kind == simmpi::CommKind::Allreduce) n += count;
    return n;
}

TEST(AleNS, ParallelStepIssuesTwoAllreducesPerCgIteration) {
    // One step runs four condensed PCG solves (mesh velocity, pressure, u,
    // v); a solve of k iterations costs 1 + 2k allreduces.  The bound is the
    // measured count (494 for 245 iterations) with margin; uncondensed PCG
    // with three reductions per iteration issued 1282 here.  Condensation
    // is what cuts the mass-dominated velocity solves: u + v took 286
    // iterations uncondensed and take 129 condensed.
    const auto m = flap_mesh();
    AleOptions opts = flapping_options();
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, 2);
    simmpi::World world(2, test_net());
    std::uint64_t allreduces = 0, iterations = 0, velocity_iterations = 0;
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 3, opts, &c, &part);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        ns.step();
        ns.step();
        const std::uint64_t before = allreduce_count(c.log());
        ns.step();
        if (c.rank() != 0) return;
        allreduces = allreduce_count(c.log()) - before;
        iterations = ns.last_mesh_iterations() + ns.last_pressure_iterations() +
                     ns.last_u_iterations() + ns.last_v_iterations();
        velocity_iterations = ns.last_u_iterations() + ns.last_v_iterations();
    });
    EXPECT_EQ(allreduces, 4 + 2 * iterations);
    EXPECT_LT(allreduces, 750u);
    EXPECT_LT(velocity_iterations, 180u);
}

TEST(AleNS, UnconvergedSolveThrows) {
    // Both an iteration cap that stops CG early and a tolerance no residual
    // reaches must throw; neither result may be accepted quietly.
    for (const la::CgOptions cg : {la::CgOptions{.max_iterations = 1, .tolerance = 1e-9},
                                   la::CgOptions{.max_iterations = 2000, .tolerance = 0.0}}) {
        AleOptions opts = flapping_options();
        opts.cg = cg;
        AleNS2d ns(flap_mesh(), 3, opts);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        EXPECT_THROW(
            {
                ns.step();
                ns.step();
            },
            std::runtime_error)
            << "max_iterations " << cg.max_iterations << ", tolerance " << cg.tolerance;
    }
}

TEST(AleNS, ParallelRunNeedsPartition) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([&](simmpi::Comm& c) {
        AleOptions opts;
        AleNS2d ns(flap_mesh(), 3, opts, &c, nullptr);
    }),
                 std::invalid_argument);
}

TEST(AleNS, ParallelRunRejectsAPerRankPressurePin) {
    const auto m = flap_mesh();
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, 2);
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([&](simmpi::Comm& c) {
        AleOptions opts;
        opts.pressure_bc = {.dirichlet = {}, .pin_first_dof = true};
        AleNS2d ns(m, 3, opts, &c, &part);
    }),
                 std::invalid_argument);
}

} // namespace
