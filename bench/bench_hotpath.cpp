/// Hot-path microbenchmark of the elemental operator engines: per-element
/// dgemv loops versus the grouped dense dgemm batch versus the
/// sum-factorised tensor-contraction backend, for the modal->quad
/// transform, the weak inner product, and the modal gradient.  The sweep
/// runs orders 4-12 and reports the crossover order — the smallest order
/// from which sum factorisation stays ahead of the dense batch — in the
/// RunReport (top-level "crossover_order").  Writes machine-readable
/// results to BENCH_hotpath.json (CI uploads it as an artifact and gates
/// both engines against committed baselines; --smoke shrinks the sweep
/// for the per-commit job).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "compute/backend_impl.hpp"
#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "parallel/thread_pool.hpp"

namespace {

struct CaseResult {
    std::size_t order = 0, elements = 0, planes = 0;
    double per_elem_ms[3] = {};  // to_quad, weak_inner, grad
    double batched_ms[3] = {};   // dense batched engine (reference)
    double sumfact_ms[3] = {};   // sum-factorised engine
    [[nodiscard]] double per_elem_total() const {
        return per_elem_ms[0] + per_elem_ms[1] + per_elem_ms[2];
    }
    [[nodiscard]] double batched_total() const {
        return batched_ms[0] + batched_ms[1] + batched_ms[2];
    }
    [[nodiscard]] double sumfact_total() const {
        return sumfact_ms[0] + sumfact_ms[1] + sumfact_ms[2];
    }
    [[nodiscard]] double speedup() const { return per_elem_total() / batched_total(); }
    [[nodiscard]] double sumfact_speedup() const { return batched_total() / sumfact_total(); }
};

CaseResult run_case(std::size_t order, std::size_t nside, std::size_t planes,
                    double min_seconds) {
    const auto m = std::make_shared<mesh::Mesh>(
        mesh::rectangle_quads(nside, nside, 0.0, 1.0, 0.0, 1.0));
    const auto disc = std::make_shared<nektar::Discretization>(m, order);
    const std::size_t nm = disc->modal_size();
    const std::size_t nq = disc->quad_size();

    std::vector<double> modal(nm * planes), quad(nq * planes), rhs(nm * planes);
    std::vector<double> dx(nq * planes), dy(nq * planes);
    for (std::size_t i = 0; i < modal.size(); ++i)
        modal[i] = 1.0 + static_cast<double>(i % 17) * 0.25;
    for (std::size_t i = 0; i < quad.size(); ++i)
        quad[i] = 0.5 + static_cast<double>(i % 13) * 0.125;

    CaseResult r{order, disc->num_elements(), planes, {}, {}, {}};
    const std::size_t ne = disc->num_elements();

    const auto per_plane = [&](auto&& body) {
        for (std::size_t p = 0; p < planes; ++p)
            for (std::size_t e = 0; e < ne; ++e) body(p, e);
    };
    const auto mspan = [&](std::size_t p) {
        return std::span<const double>(modal).subspan(p * nm, nm);
    };

    // Per-element reference loops (the pre-batching hot path).
    r.per_elem_ms[0] = 1e3 * benchutil::time_per_call(
        [&] {
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).interp_to_quad(
                    disc->modal_block(mspan(p), e),
                    disc->quad_block(std::span<double>(quad).subspan(p * nq, nq), e));
            });
        },
        min_seconds);
    r.per_elem_ms[1] = 1e3 * benchutil::time_per_call(
        [&] {
            std::fill(rhs.begin(), rhs.end(), 0.0);
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).weak_inner(
                    disc->quad_block(std::span<const double>(quad).subspan(p * nq, nq), e),
                    disc->modal_block(std::span<double>(rhs).subspan(p * nm, nm), e));
            });
        },
        min_seconds);
    r.per_elem_ms[2] = 1e3 * benchutil::time_per_call(
        [&] {
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).grad_from_modal(
                    disc->modal_block(mspan(p), e),
                    disc->quad_block(std::span<double>(dx).subspan(p * nq, nq), e),
                    disc->quad_block(std::span<double>(dy).subspan(p * nq, nq), e));
            });
        },
        min_seconds);

    // Both batched engines, built directly: the discretization runs only the
    // one its order picks.
    const compute::DenseBackend dense(*disc);
    const compute::SumFactorBackend sumfact(*disc);
    const std::pair<const compute::Backend*, double*> engines[2] = {{&dense, r.batched_ms},
                                                                    {&sumfact, r.sumfact_ms}};
    for (const auto& [eng, ms] : engines) {
        ms[0] = 1e3 * benchutil::time_per_call(
            [&] { eng->to_quad_planes(modal, quad, planes); }, min_seconds);
        ms[1] = 1e3 * benchutil::time_per_call(
            [&] {
                std::fill(rhs.begin(), rhs.end(), 0.0);
                eng->weak_inner_planes(quad, rhs, planes);
            },
            min_seconds);
        ms[2] = 1e3 * benchutil::time_per_call(
            [&] { eng->grad_from_modal_planes(modal, dx, dy, planes); }, min_seconds);
    }
    return r;
}

perf::Case to_case(const CaseResult& r) {
    perf::Case c;
    c.values["order"] = static_cast<double>(r.order);
    c.values["elements"] = static_cast<double>(r.elements);
    c.values["planes"] = static_cast<double>(r.planes);
    static const char* kKernels[3] = {"to_quad", "weak_inner", "grad"};
    for (int k = 0; k < 3; ++k) {
        c.values[std::string("per_element_ms.") + kKernels[k]] = r.per_elem_ms[k];
        c.values[std::string("batched_ms.") + kKernels[k]] = r.batched_ms[k];
        c.values[std::string("sumfact_ms.") + kKernels[k]] = r.sumfact_ms[k];
    }
    c.values["speedup"] = r.speedup();
    c.values["sumfact_speedup"] = r.sumfact_speedup();
    return c;
}

/// Smallest order from which the sum-factorised totals stay at or below the
/// dense batched totals for every measured order above it (totals summed
/// over the mesh-size/plane cases of each order).  -1 when sumfact never
/// takes the lead.  "Stays ahead" rather than "first win" so a noisy win at
/// low order does not masquerade as the asymptotic crossover.
double crossover_order(const std::vector<CaseResult>& results) {
    std::map<std::size_t, double> dense, sumfact;
    for (const CaseResult& r : results) {
        dense[r.order] += r.batched_total();
        sumfact[r.order] += r.sumfact_total();
    }
    double crossover = -1.0;
    for (const auto& [order, d] : dense) {
        if (sumfact[order] <= d) {
            if (crossover < 0.0) crossover = static_cast<double>(order);
        } else {
            crossover = -1.0;
        }
    }
    return crossover;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("bench_hotpath", argc, argv);
    const bool smoke = cli.request.smoke;
    // Timing window per measurement; the CI perf gate raises it above the
    // smoke default so microsecond kernels average out scheduler noise.
    const double min_seconds =
        cli.min_seconds > 0.0 ? cli.min_seconds : (smoke ? 0.002 : 0.05);
    // Orders 4-12: the dense batch wins at low order (one big dgemm, no
    // staging overhead), sum factorisation wins once O(P^3) beats O(P^4).
    const std::vector<std::size_t> orders = smoke
                                                ? std::vector<std::size_t>{4, 8, 12}
                                                : std::vector<std::size_t>{4, 6, 8, 10, 12};
    const std::vector<std::size_t> sides = smoke ? std::vector<std::size_t>{8}
                                                 : std::vector<std::size_t>{8, 16};
    const std::vector<std::size_t> planes = smoke ? std::vector<std::size_t>{1, 4}
                                                  : std::vector<std::size_t>{1, 16};

    std::printf("Elemental engine hot path (per-element dgemv vs dense batch vs sumfact)\n");
    std::printf("threads = %u\n\n", parallel::num_threads());
    benchutil::Table table({"order", "elems", "planes", "perElem ms", "dense ms",
                            "sumfact ms", "sf speedup"});
    table.print_header();

    std::vector<CaseResult> results;
    for (std::size_t order : orders) {
        for (std::size_t side : sides) {
            for (std::size_t np : planes) {
                const CaseResult r = run_case(order, side, np, min_seconds);
                results.push_back(r);
                table.print_row({std::to_string(r.order), std::to_string(r.elements),
                                 std::to_string(r.planes),
                                 benchutil::fmt(r.per_elem_total(), "%.3f"),
                                 benchutil::fmt(r.batched_total(), "%.3f"),
                                 benchutil::fmt(r.sumfact_total(), "%.3f"),
                                 benchutil::fmt(r.sumfact_speedup(), "%.2f")});
            }
        }
    }
    const double crossover = crossover_order(results);
    if (crossover >= 0.0)
        std::printf("\nsum-factorisation crossover: order >= %.0f (sumfact ahead of the "
                    "dense batch from there on)\n",
                    crossover);
    else
        std::printf("\nsum-factorisation crossover: none within this sweep\n");

    perf::RunReport rep = perf::report("bench_hotpath");
    rep.backend = "dense+sumfact"; // both engines measured side by side
    rep.crossover_order = crossover;
    rep.meta["threads"] = std::to_string(parallel::num_threads());
    for (const CaseResult& r : results) rep.cases.push_back(to_case(r));
    cli.finish(std::move(rep), "BENCH_hotpath.json");
    return 0;
}
