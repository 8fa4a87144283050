#include "compute/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "blaslite/blas.hpp"
#include "compute/backend_impl.hpp"
#include "la/dense.hpp"
#include "nektar/discretization.hpp"
#include "parallel/scratch.hpp"

namespace compute {

const char* to_string(BackendKind k) noexcept {
    return k == BackendKind::SumFactor ? "sumfact" : "dense";
}

Backend::~Backend() = default;

void Backend::project_planes(std::span<const double> quad, std::span<double> modal,
                             std::size_t nplanes) const {
    std::fill(modal.begin(), modal.end(), 0.0);
    weak_inner_planes(quad, modal, nplanes);
    mass_solve_planes(modal, nplanes);
}

void Backend::mass_solve_planes(std::span<double> modal, std::size_t nplanes) const {
    // Runs of congruent elements share one Cholesky factor, so a whole run of
    // columns goes through la::cholesky_solve_cols at once.
    const nektar::Discretization& d = *disc_;
    const auto& off = d.modal_offsets();
    for (const nektar::ElemGroup& g : d.groups()) {
        const std::size_t nm = g.exp->num_modes();
        for (std::size_t p = 0; p < nplanes; ++p) {
            double* base = modal.data() + p * d.modal_size();
            for (const nektar::ElemGroup::MatrixRun& run : g.runs) {
                const std::size_t first = g.elems[run.first];
                if (g.contiguous) {
                    la::cholesky_solve_cols(run.mats->mass_chol, base + off[first], nm,
                                            run.count);
                } else {
                    for (std::size_t j = 0; j < run.count; ++j)
                        la::cholesky_solve(
                            run.mats->mass_chol,
                            std::span<double>(base + off[g.elems[run.first + j]], nm));
                }
            }
        }
    }
}

void Backend::convect_planes(std::span<const double> au, std::span<const double> av,
                             std::span<const double> u, std::span<const double> v,
                             std::span<double> nu, std::span<double> nv,
                             std::size_t nplanes) const {
    const nektar::Discretization& d = *disc_;
    const auto& qoff = d.quad_offsets();
    const std::size_t qsize = d.quad_size();
    for (const nektar::ElemGroup& g : d.groups()) {
        const std::size_t cnt = g.elems.size();
        const nektar::ElementOps& ops0 = d.ops(g.elems.front());
        const std::size_t n1 = ops0.colloc_nq1d();
        if (n1 == 0)
            throw std::logic_error("convect_planes: quad elements only");
        const std::size_t nq = n1 * n1;
        // 1-D GLL differentiation matrix D (row-major) and its column-major
        // copy; shared by every element of the group (same nodes).
        const la::DenseMatrix& d_rm = ops0.colloc_diff_1d();
        const la::DenseMatrix d_cm = d_rm.transposed();
        const std::size_t nitems = cnt * nplanes;

        parallel::Scratch c1(nq * nitems), c2(nq * nitems);
        std::vector<blaslite::GemmBatchItem> items(nitems);
        const auto derivs = [&](std::span<const double> f) {
            // d/dxi1 = D * Q_e: per-plane panels when the group is contiguous
            // (n1*cnt columns each), per-element panels otherwise.
            if (g.contiguous) {
                items.resize(nplanes);
                for (std::size_t p = 0; p < nplanes; ++p)
                    items[p] = {f.data() + p * qsize + g.quad_begin,
                                c1.data() + p * nq * cnt};
                blaslite::dgemm_batch_same_a(1.0, d_cm.data(), n1, n1, n1, items, n1 * cnt,
                                             n1, n1, 0.0);
                items.resize(nitems);
            } else {
                for (std::size_t p = 0; p < nplanes; ++p)
                    for (std::size_t j = 0; j < cnt; ++j)
                        items[p * cnt + j] = {f.data() + p * qsize + qoff[g.elems[j]],
                                              c1.data() + (p * cnt + j) * nq};
                blaslite::dgemm_batch_same_a(1.0, d_cm.data(), n1, n1, n1, items, n1, n1, n1,
                                             0.0);
            }
            // d/dxi2 = Q_e * D^T: shared right operand (D row-major *is* D^T
            // column-major), one item per element and plane.
            for (std::size_t p = 0; p < nplanes; ++p)
                for (std::size_t j = 0; j < cnt; ++j)
                    items[p * cnt + j] = {f.data() + p * qsize + qoff[g.elems[j]],
                                          c2.data() + (p * cnt + j) * nq};
            blaslite::dgemm_batch_same_b(1.0, items, n1, d_rm.data(), n1, n1, n1, n1, n1,
                                         0.0);
        };
        // Chain rule, advecting products and sign fused into one scatter.
        const auto fuse = [&](std::span<double> out) {
            for (std::size_t p = 0; p < nplanes; ++p) {
                for (std::size_t j = 0; j < cnt; ++j) {
                    const std::size_t e = g.elems[j];
                    const nektar::ElemGeometry& geo = d.ops(e).geometry();
                    const double* e1 = c1.data() + (p * cnt + j) * nq;
                    const double* e2 = c2.data() + (p * cnt + j) * nq;
                    const double* a1 = au.data() + p * qsize + qoff[e];
                    const double* a2 = av.data() + p * qsize + qoff[e];
                    double* o = out.data() + p * qsize + qoff[e];
                    for (std::size_t q = 0; q < nq; ++q) {
                        const double fx = geo.rx[q] * e1[q] + geo.sx[q] * e2[q];
                        const double fy = geo.ry[q] * e1[q] + geo.sy[q] * e2[q];
                        o[q] = -(a1[q] * fx + a2[q] * fy);
                    }
                }
            }
            blaslite::detail::charge(10 * nq * nitems,
                                     9 * nq * nitems * sizeof(double),
                                     nq * nitems * sizeof(double));
        };
        derivs(u);
        fuse(nu);
        derivs(v);
        fuse(nv);
    }
}

std::unique_ptr<Backend> make_backend(BackendKind kind, const nektar::Discretization& disc) {
    if (kind == BackendKind::SumFactor) return std::make_unique<SumFactorBackend>(disc);
    return std::make_unique<DenseBackend>(disc);
}

} // namespace compute
