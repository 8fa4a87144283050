#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "blaslite/counters.hpp"
#include "fft/fft.hpp"
#include "gs/gather_scatter.hpp"
#include "la/banded.hpp"
#include "nektar/dofmap.hpp"
#include "nektar/helmholtz.hpp"
#include "simmpi/simmpi.hpp"

namespace perfbench {
namespace {

/// Calls `f` at least `min_reps` times and until `budget_s` has passed (at
/// most `max_reps`); returns the median seconds per call and records the
/// kernels' computed counts per call under `name`.
template <class F>
double timed(Result& r, const char* name, int min_reps, int max_reps, double budget_s, F&& f) {
    std::vector<double> samples;
    const blaslite::CountScope counts;
    const auto start = Clock::now();
    while (static_cast<int>(samples.size()) < max_reps &&
           (static_cast<int>(samples.size()) < min_reps || seconds_since(start) < budget_s)) {
        const auto t0 = Clock::now();
        f();
        samples.push_back(seconds_since(t0));
    }
    const blaslite::OpCounts c = counts.delta();
    const double reps = static_cast<double>(samples.size());
    r.computed.push_back({name, static_cast<double>(c.flops) / reps,
                          static_cast<double>(c.bytes()) / reps, 1.0});
    return median(samples);
}

/// Host seconds per collective: rank 0 times `reps` calls between barriers
/// (every rank must enter each collective, so this spans all ranks' work).
template <class F>
double timed_collective(int nprocs, int reps, F&& per_rank) {
    double per_call = 0.0;
    simmpi::World world(nprocs, probe_network());
    world.run([&](simmpi::Comm& c) {
        auto body = per_rank(c);
        body(); // warm-up: first-touch buffers, fiber stacks
        c.barrier();
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) body();
        c.barrier();
        if (c.rank() == 0) per_call = seconds_since(t0) / reps;
    });
    return per_call;
}

} // namespace

netsim::NetworkModel probe_network() {
    netsim::NetworkModel net;
    net.name = "probe";
    net.latency_us = 10.0;
    net.bandwidth_mbps = 100.0;
    return net;
}

void probe_banded(Result& r, std::size_t n, std::size_t kd) {
    // Strictly diagonally dominant, hence SPD, with the solver's n and kd.
    la::SymBandedMatrix a(n, kd);
    double offsum = 0.0;
    for (std::size_t d = 1; d <= kd; ++d) offsum += 2.0 * 1.1 * 0.5 / (1.0 + d);
    for (std::size_t j = 0; j < n; ++j) {
        a.band(0, j) = 1.0 + offsum;
        for (std::size_t d = 1; d <= kd && j + d < n; ++d)
            a.band(d, j) = -0.5 / (1.0 + d) * (1.0 + 0.1 * std::sin(static_cast<double>(j + d)));
    }
    la::BandedCholesky chol;
    bool ok = true;
    const double factor_s =
        timed(r, "la.factor", 1, 5, 0.5, [&] { ok = chol.factor(a) && ok; });
    if (!ok) r.fail("banded probe: factor rejected an SPD matrix");
    const std::vector<double> rhs(n, 1.0);
    std::vector<double> b;
    const double solve_s = timed(r, "la.solve", 5, 200, 0.5, [&] {
        b = rhs;
        chol.solve(b);
    });
    r.layers["la.factor_s"] = factor_s;
    r.layers["la.factor_gflops"] =
        static_cast<double>(n) * static_cast<double>(kd) * static_cast<double>(kd) / factor_s /
        1e9;
    r.layers["la.solve_ms"] = 1e3 * solve_s;
}

void probe_transforms(Result& r, const nektar::Discretization& disc) {
    std::vector<double> modal(disc.modal_size()), quad(disc.quad_size()),
        rhs(disc.modal_size(), 0.0);
    for (std::size_t i = 0; i < modal.size(); ++i) modal[i] = std::sin(0.1 * static_cast<double>(i));
    for (std::size_t i = 0; i < quad.size(); ++i) quad[i] = std::cos(0.1 * static_cast<double>(i));
    r.layers["compute.to_quad_us"] =
        1e6 * timed(r, "compute.to_quad", 10, 2000, 0.3, [&] { disc.to_quad(modal, quad); });
    r.layers["compute.weak_inner_us"] = 1e6 * timed(r, "compute.weak_inner", 10, 2000, 0.3, [&] {
        std::fill(rhs.begin(), rhs.end(), 0.0);
        disc.weak_inner(quad, rhs);
    });
}

void probe_pcg(Result& r, const std::shared_ptr<const nektar::Discretization>& disc,
               double tolerance) {
    // The ALE pressure Poisson problem: lambda = 0, Dirichlet on the outflow.
    const nektar::HelmholtzPCG pcg(disc, 0.0,
                                   nektar::HelmholtzBC{.dirichlet = {mesh::BoundaryTag::Outflow}},
                                   la::CgOptions{.max_iterations = 2000, .tolerance = tolerance});
    std::vector<double> f(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return std::sin(x) * std::cos(0.5 * y); }, f);
    std::size_t iters = 0;
    const double solve_s = timed(r, "la.pcg_solve", 3, 20, 1.0, [&] {
        const auto u = pcg.solve(f);
        iters = pcg.last_iterations();
    });
    const std::size_t n = disc->dofmap().num_global();
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.3 * static_cast<double>(i));
    const double apply_s = timed(r, "nektar.pcg_apply", 10, 2000, 0.3, [&] { pcg.apply(x, y); });
    r.layers["la.pcg_solve_ms"] = 1e3 * solve_s;
    r.layers["la.pcg_iter_us"] = 1e6 * solve_s / static_cast<double>(std::max<std::size_t>(iters, 1));
    r.layers["nektar.pcg_apply_us"] = 1e6 * apply_s;
    r.shape["pcg_probe_iterations"] = static_cast<double>(iters);
    r.shape["pcg_probe_n"] = static_cast<double>(n);
}

void probe_fft(Result& r, std::size_t nz, std::size_t lines) {
    const fft::Plan plan(nz);
    std::vector<double> line(nz);
    for (std::size_t k = 0; k < nz; ++k) line[k] = std::cos(0.7 * static_cast<double>(k));
    double sink = 0.0;
    const double all_s = timed(r, "fft.zlines", 3, 200, 0.3, [&] {
        for (std::size_t l = 0; l < lines; ++l) {
            const auto spec = fft::rfft(plan, line);
            const auto back = fft::irfft(plan, spec);
            sink += back[l % nz];
        }
    });
    if (!std::isfinite(sink)) r.fail("fft probe: non-finite round trip");
    r.computed.back().calls = static_cast<double>(lines);
    r.layers["fft.zline_us"] = 1e6 * all_s / static_cast<double>(lines);
}

void probe_alltoall(Result& r, int nprocs, std::size_t block) {
    constexpr int reps = 200;
    const double s = timed_collective(nprocs, reps, [&](simmpi::Comm& c) {
        auto send = std::make_shared<std::vector<double>>(block * nprocs, 1.0);
        auto recv = std::make_shared<std::vector<double>>(block * nprocs);
        return [&c, send, recv, block] { c.alltoall(*send, *recv, block); };
    });
    r.layers["simmpi.alltoall_us"] = 1e6 * s;
    const double bytes = 2.0 * static_cast<double>(block * nprocs * (nprocs - 1)) * sizeof(double);
    r.computed.push_back({"simmpi.alltoall", 0.0, bytes, 1.0});
}

void probe_allreduce(Result& r, int nprocs, std::size_t count) {
    constexpr int reps = 2000;
    const double s = timed_collective(nprocs, reps, [&](simmpi::Comm& c) {
        auto data = std::make_shared<std::vector<double>>(count, 1.0);
        return [&c, data] {
            std::fill(data->begin(), data->end(), 1.0);
            c.allreduce_sum(*data);
        };
    });
    r.layers["simmpi.allreduce_us"] = 1e6 * s;
    r.computed.push_back({"simmpi.allreduce",
                          static_cast<double>(count * static_cast<std::size_t>(nprocs)),
                          2.0 * static_cast<double>(count * nprocs) * sizeof(double), 1.0});
}

void probe_gs(Result& r, const mesh::Mesh& m, std::size_t order, const std::vector<int>& part,
              int nprocs) {
    // Each rank lists the full-mesh dofs of the elements it owns: the same
    // sharing pattern AleNS2d hands to its GatherScatter.
    const nektar::DofMap dm(m, order, /*renumber=*/false);
    std::vector<std::vector<std::int64_t>> ids(static_cast<std::size_t>(nprocs));
    for (int rank = 0; rank < nprocs; ++rank) {
        std::set<std::int64_t> own;
        for (std::size_t e = 0; e < m.num_elements(); ++e)
            if (part[e] == rank)
                for (const auto& d : dm.element_map(e)) own.insert(d.global);
        ids[static_cast<std::size_t>(rank)].assign(own.begin(), own.end());
    }
    constexpr int reps = 500;
    std::size_t shared_dofs = 0;
    const double s = timed_collective(nprocs, reps, [&](simmpi::Comm& c) {
        const auto& mine = ids[static_cast<std::size_t>(c.rank())];
        auto g = std::make_shared<gs::GatherScatter>(c, mine);
        if (c.rank() == 0) shared_dofs = g->pairwise_dofs() + g->tree_dofs();
        auto v = std::make_shared<std::vector<double>>(mine.size(), 1.0);
        return [&c, g, v] {
            std::fill(v->begin(), v->end(), 1.0);
            g->sum(c, *v);
        };
    });
    r.layers["gs.sum_us"] = 1e6 * s;
    r.shape["gs_rank0_shared_dofs"] = static_cast<double>(shared_dofs);
    r.computed.push_back({"gs.sum", 0.0,
                          2.0 * static_cast<double>(shared_dofs) * sizeof(double), 1.0});
}

} // namespace perfbench
