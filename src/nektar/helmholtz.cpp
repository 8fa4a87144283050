#include "nektar/helmholtz.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "blaslite/blas.hpp"
#include "parallel/scratch.hpp"

namespace nektar {

namespace {

std::vector<char> dirichlet_mask(const Discretization& disc, const HelmholtzBC& bc,
                                 std::vector<int>* dofs_out) {
    std::vector<int> dofs = disc.dofmap().boundary_dofs(
        [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); });
    if (bc.pin_first_dof && dofs.empty()) {
        // Pin a *vertex* dof: the Neumann Laplacian's null space (constants)
        // has nonzero components only on vertex dofs, so pinning a bubble or
        // edge dof would leave the matrix singular.
        const auto& map0 = disc.dofmap().element_map(0);
        dofs.push_back(map0[disc.ops(0).expansion().vertex_mode(0)].global);
    }
    std::vector<char> mask(disc.dofmap().num_global(), 0);
    for (int d : dofs) mask[static_cast<std::size_t>(d)] = 1;
    if (dofs_out) *dofs_out = std::move(dofs);
    return mask;
}

/// Reverse Cuthill-McKee over the boundary dofs 0..n_dofs-1, adjacency given
/// by shared elements (the full dof map's algorithm, restricted to the
/// condensed system).
std::vector<int> boundary_rcm(const std::vector<std::vector<int>>& elem_bdofs,
                              std::size_t n_dofs) {
    std::vector<std::vector<int>> dof_elems(n_dofs);
    for (std::size_t e = 0; e < elem_bdofs.size(); ++e)
        for (int d : elem_bdofs[e])
            dof_elems[static_cast<std::size_t>(d)].push_back(static_cast<int>(e));
    std::vector<int> order;
    order.reserve(n_dofs);
    std::vector<char> seen(n_dofs, 0);
    for (std::size_t start = 0; start < n_dofs; ++start) {
        if (seen[start]) continue;
        std::deque<int> queue{static_cast<int>(start)};
        seen[start] = 1;
        while (!queue.empty()) {
            const int d = queue.front();
            queue.pop_front();
            order.push_back(d);
            std::set<int> nb;
            for (int e : dof_elems[static_cast<std::size_t>(d)])
                for (int u : elem_bdofs[static_cast<std::size_t>(e)])
                    if (!seen[static_cast<std::size_t>(u)]) nb.insert(u);
            for (int u : nb) {
                seen[static_cast<std::size_t>(u)] = 1;
                queue.push_back(u);
            }
        }
    }
    std::vector<int> perm(n_dofs);
    for (std::size_t i = 0; i < n_dofs; ++i)
        perm[static_cast<std::size_t>(order[n_dofs - 1 - i])] = static_cast<int>(i);
    return perm;
}

} // namespace

HelmholtzDirect::ClassCondensation HelmholtzDirect::condense(const ElemMatrices& mats,
                                                             std::size_t nmb, double lambda,
                                                             la::DenseMatrix& schur) {
    const std::size_t nm = mats.lap.rows();
    const std::size_t ni = nm - nmb;
    const auto a = [&](std::size_t i, std::size_t j) {
        return mats.lap(i, j) + lambda * mats.mass(i, j);
    };
    ClassCondensation c{.nm = nm, .ni = ni, .fwd = {}, .x = {}};
    schur = la::DenseMatrix(nmb, nmb);
    for (std::size_t i = 0; i < nmb; ++i)
        for (std::size_t j = 0; j < nmb; ++j) schur(i, j) = a(i, j);
    if (ni == 0) return c;

    la::DenseMatrix l(ni, ni);
    for (std::size_t i = 0; i < ni; ++i)
        for (std::size_t j = 0; j < ni; ++j) l(i, j) = a(nmb + i, nmb + j);
    if (!la::cholesky_factor(l))
        throw std::runtime_error("HelmholtzDirect: interior block not positive definite");
    // X = A_ii^{-1} A_ib, column by column.
    c.x.resize(ni * nmb);
    for (std::size_t j = 0; j < nmb; ++j)
        for (std::size_t i = 0; i < ni; ++i) c.x[i + j * ni] = a(nmb + i, j);
    la::cholesky_solve_cols(l, c.x.data(), ni, nmb);
    // S = A_bb - A_bi X.
    for (std::size_t i = 0; i < nmb; ++i)
        for (std::size_t j = 0; j < nmb; ++j) {
            double s = schur(i, j);
            for (std::size_t k = 0; k < ni; ++k) s -= a(i, nmb + k) * c.x[k + j * ni];
            schur(i, j) = s;
        }
    // fwd = [-X^T; A_ii^{-1}].
    c.fwd.assign(nm * ni, 0.0);
    for (std::size_t j = 0; j < ni; ++j) {
        for (std::size_t r = 0; r < nmb; ++r) c.fwd[r + j * nm] = -c.x[j + r * ni];
        c.fwd[nmb + j + j * nm] = 1.0;
    }
    la::cholesky_solve_cols(l, c.fwd.data() + nmb, nm, ni);
    return c;
}

template <class F>
void HelmholtzDirect::for_each_run(F&& f) const {
    std::size_t r = 0;
    for (const ElemGroup& g : disc_->groups())
        for (const ElemGroup::MatrixRun& run : g.runs) f(g, run, classes_[run_class_[r++]]);
}

HelmholtzDirect::HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                                 HelmholtzBC bc)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)) {
    const DofMap& dm = disc_->dofmap();
    const std::vector<char> is_dirichlet = dirichlet_mask(*disc_, bc_, &dirichlet_dofs_);

    // Condense every matrix class once; schur[c] is class c's S (row-major).
    std::map<const ElemMatrices*, std::size_t> class_of;
    std::vector<la::DenseMatrix> schur;
    std::vector<std::size_t> elem_class(disc_->num_elements());
    for (const ElemGroup& g : disc_->groups()) {
        for (const ElemGroup::MatrixRun& run : g.runs) {
            const auto [it, fresh] = class_of.emplace(run.mats, classes_.size());
            if (fresh) {
                la::DenseMatrix s;
                classes_.push_back(condense(*run.mats, g.exp->num_boundary_modes(), lambda_, s));
                schur.push_back(std::move(s));
            }
            run_class_.push_back(it->second);
            for (std::size_t j = 0; j < run.count; ++j)
                elem_class[g.elems[run.first + j]] = it->second;
        }
    }

    // Boundary dofs: marked, ranked in the discretization's order, then
    // renumbered by RCM.  cidx ends as global -> condensed (-1 = interior).
    const std::size_t n = dm.num_global();
    std::vector<int> cidx(n, -1);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i) cidx[static_cast<std::size_t>(map[i].global)] = 0;
    }
    std::vector<int> rank_dof;
    for (std::size_t d = 0; d < n; ++d)
        if (cidx[d] == 0) {
            cidx[d] = static_cast<int>(rank_dof.size());
            rank_dof.push_back(static_cast<int>(d));
        }
    const std::size_t nb = rank_dof.size();
    std::vector<std::vector<int>> elem_bdofs(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i)
            elem_bdofs[e].push_back(cidx[static_cast<std::size_t>(map[i].global)]);
    }
    const std::vector<int> perm = boundary_rcm(elem_bdofs, nb);
    bdof_.resize(nb);
    for (std::size_t k = 0; k < nb; ++k) {
        const auto c = static_cast<std::size_t>(perm[k]);
        bdof_[c] = rank_dof[k];
        cidx[static_cast<std::size_t>(rank_dof[k])] = static_cast<int>(c);
    }

    std::size_t kd = 0;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i)
            for (std::size_t j = 0; j < i; ++j)
                kd = std::max(kd, static_cast<std::size_t>(std::abs(
                                      cidx[static_cast<std::size_t>(map[i].global)] -
                                      cidx[static_cast<std::size_t>(map[j].global)])));
    }

    // Assemble the signed Schur blocks D_b S D_b.
    la::SymBandedMatrix h(nb, kd);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const la::DenseMatrix& s = schur[elem_class[e]];
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < s.rows(); ++i) {
            const auto ci = static_cast<std::size_t>(cidx[static_cast<std::size_t>(map[i].global)]);
            for (std::size_t j = 0; j <= i; ++j) {
                const auto cj =
                    static_cast<std::size_t>(cidx[static_cast<std::size_t>(map[j].global)]);
                const double v = map[i].sign * map[j].sign * s(i, j);
                h.add(ci, cj, (ci == cj && i != j) ? 2.0 * v : v);
            }
        }
    }

    // Record Dirichlet columns for RHS lifting, then reduce the system to the
    // identity on constrained dofs.
    for (int d : dirichlet_dofs_) {
        const auto du = static_cast<std::size_t>(cidx[static_cast<std::size_t>(d)]);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(nb - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (is_dirichlet[static_cast<std::size_t>(bdof_[r])]) continue;
            const double v = h.at(r, du);
            if (v != 0.0) lift_.emplace_back(bdof_[r], d, v);
        }
    }
    for (int d : dirichlet_dofs_) {
        const auto du = static_cast<std::size_t>(cidx[static_cast<std::size_t>(d)]);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(nb - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (r == du) continue;
            const double v = h.at(r, du);
            if (v != 0.0) h.add(r, du, -v);
        }
        h.band(0, du) = 1.0;
    }

    if (!chol_.factor(std::move(h)))
        throw std::runtime_error("HelmholtzDirect: matrix not positive definite "
                                 "(all-Neumann Poisson needs pin_first_dof)");
}

std::size_t HelmholtzDirect::factor_bytes() const noexcept {
    std::size_t doubles = chol_.size() * (chol_.bandwidth() + 1);
    for (const ClassCondensation& c : classes_) doubles += c.fwd.size() + c.x.size();
    return doubles * sizeof(double);
}

std::vector<double> HelmholtzDirect::dirichlet_vector(
    const std::function<double(double, double)>& g) const {
    std::vector<double> bvals(disc_->dofmap().num_global(), 0.0);
    if (g) {
        const auto vals = disc_->dofmap().dirichlet_values(
            [&](mesh::BoundaryTag t) { return bc_.is_dirichlet(t); }, g);
        for (const auto& [dof, v] : vals) bvals[static_cast<std::size_t>(dof)] = v;
    }
    return bvals;
}

std::vector<double> HelmholtzDirect::solve_global(std::vector<double> rhs,
                                                  std::span<const double> dirichlet) const {
    const std::size_t nmodal = disc_->modal_size();
    // Local loads: an interior dof belongs to one element (sign +1), so its
    // local value is that element's f_i.
    parallel::Scratch f(nmodal), w(nmodal);
    disc_->scatter(rhs, f.span());
    // w = [-X^T f_i; A_ii^{-1} f_i] per element.
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run,
                     const ClassCondensation& c) {
        const std::size_t nm = c.nm, ni = c.ni, nmb = nm - ni;
        if (ni == 0) {
            for (std::size_t j = 0; j < run.count; ++j)
                std::fill_n(w.data() + disc_->modal_offset(g.elems[run.first + j]), nm, 0.0);
        } else if (g.contiguous) {
            const std::size_t off = disc_->modal_offset(g.elems[run.first]);
            blaslite::dgemm_cm(1.0, c.fwd.data(), nm, f.data() + off + nmb, nm, 0.0,
                               w.data() + off, nm, nm, run.count, ni);
        } else {
            for (std::size_t j = 0; j < run.count; ++j) {
                const std::size_t off = disc_->modal_offset(g.elems[run.first + j]);
                blaslite::dgemv_t(1.0, c.fwd.data(), nm, ni, nm, f.data() + off + nmb, 0.0,
                                  w.data() + off);
            }
        }
    });
    // Condensed RHS on the boundary dofs.  The interior entries of rhs pick
    // up A_ii^{-1} f_i too; nothing reads them again.
    disc_->gather_add(w.span(), rhs);

    // Lift the known boundary values, impose them, solve the boundary system.
    for (const auto& [r, d, v] : lift_)
        rhs[static_cast<std::size_t>(r)] -= v * dirichlet[static_cast<std::size_t>(d)];
    for (int d : dirichlet_dofs_)
        rhs[static_cast<std::size_t>(d)] = dirichlet[static_cast<std::size_t>(d)];
    const std::size_t nb = bdof_.size();
    parallel::Scratch ub(nb);
    for (std::size_t k = 0; k < nb; ++k) ub[k] = rhs[static_cast<std::size_t>(bdof_[k])];
    chol_.solve(ub.span());
    for (std::size_t k = 0; k < nb; ++k) rhs[static_cast<std::size_t>(bdof_[k])] = ub[k];

    // Back-substitution: u_i = A_ii^{-1} f_i - X u_b.
    std::vector<double> modal(nmodal);
    disc_->scatter(rhs, modal);
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run,
                     const ClassCondensation& c) {
        const std::size_t nm = c.nm, ni = c.ni, nmb = nm - ni;
        if (ni == 0) return;
        for (std::size_t j = 0; j < run.count; ++j) {
            const std::size_t off = disc_->modal_offset(g.elems[run.first + j]) + nmb;
            std::copy_n(w.data() + off, ni, modal.data() + off);
        }
        if (g.contiguous) {
            const std::size_t off = disc_->modal_offset(g.elems[run.first]);
            blaslite::dgemm_cm(-1.0, c.x.data(), ni, modal.data() + off, nm, 1.0,
                               modal.data() + off + nmb, nm, ni, run.count, nmb);
        } else {
            for (std::size_t j = 0; j < run.count; ++j) {
                const std::size_t off = disc_->modal_offset(g.elems[run.first + j]);
                blaslite::dgemv_t(-1.0, c.x.data(), ni, nmb, ni, modal.data() + off, 1.0,
                                  modal.data() + off + nmb);
            }
        }
    });
    return modal;
}

std::vector<double> HelmholtzDirect::solve(std::span<const double> f_quad,
                                           const std::function<double(double, double)>& g) const {
    std::vector<double> rhs(disc_->dofmap().num_global(), 0.0);
    std::vector<double> local(disc_->modal_size(), 0.0);
    disc_->weak_inner(f_quad, local);
    disc_->gather_add(local, rhs);
    return solve_global(std::move(rhs), dirichlet_vector(g));
}

// ---------------------------------------------------------------------------
// PCG path
// ---------------------------------------------------------------------------

HelmholtzPCG::HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda,
                           HelmholtzBC bc, la::CgOptions opts)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)), opts_(opts) {
    is_dirichlet_ = dirichlet_mask(*disc_, bc_, nullptr);
    // Assembled diagonal for the Jacobi preconditioner.
    const DofMap& dm = disc_->dofmap();
    std::vector<double> diag(dm.num_global(), 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < ops.num_modes(); ++i)
            diag[static_cast<std::size_t>(map[i].global)] +=
                ops.laplacian()(i, i) + lambda_ * ops.mass()(i, i);
    }
    inv_diag_.resize(diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i)
        inv_diag_[i] = is_dirichlet_[i] ? 1.0 : 1.0 / diag[i];

    // Fuse L + lambda*M once per matrix class: the per-CG-iteration apply
    // then runs one matrix product per congruent-element run instead of two
    // dgemvs per element.
    for (const ElemGroup& g : disc_->groups()) {
        for (const ElemGroup::MatrixRun& run : g.runs) {
            if (fused_.count(run.mats)) continue;
            la::DenseMatrix h = run.mats->lap;
            const la::DenseMatrix& mass = run.mats->mass;
            for (std::size_t i = 0; i < h.rows() * h.cols(); ++i)
                h.data()[i] += lambda_ * mass.data()[i];
            fused_.emplace(run.mats, std::move(h));
        }
    }
}

void HelmholtzPCG::apply(std::span<const double> x, std::span<double> y) const {
    std::fill(y.begin(), y.end(), 0.0);
    parallel::Scratch xl(disc_->modal_size()), yl(disc_->modal_size());
    disc_->scatter(x, xl.span());
    for (const ElemGroup& g : disc_->groups()) {
        const std::size_t nm = g.exp->num_modes();
        for (const ElemGroup::MatrixRun& run : g.runs) {
            const la::DenseMatrix& h = fused_.at(run.mats);
            if (g.contiguous) {
                // Congruent run of adjacent blocks: Y = H X in one product
                // (H symmetric, so the row-major buffer is the column-major
                // operand).
                const std::size_t off = disc_->modal_offset(g.elems[run.first]);
                blaslite::dgemm_cm(1.0, h.data(), nm, xl.data() + off, nm, 0.0,
                                   yl.data() + off, nm, nm, run.count, nm);
            } else {
                for (std::size_t j = 0; j < run.count; ++j) {
                    const std::size_t off =
                        disc_->modal_offset(g.elems[run.first + j]);
                    blaslite::dgemv(1.0, h.data(), nm, nm, nm, xl.data() + off, 0.0,
                                    yl.data() + off);
                }
            }
        }
    }
    disc_->gather_add(yl.span(), y);
}

std::vector<double> HelmholtzPCG::solve(std::span<const double> f_quad,
                                        const std::function<double(double, double)>& g) const {
    const std::size_t n = disc_->dofmap().num_global();
    std::vector<double> rhs(n, 0.0), local(disc_->modal_size(), 0.0);
    disc_->weak_inner(f_quad, local);
    disc_->gather_add(local, rhs);

    std::vector<double> x(n, 0.0);
    if (g) {
        const auto vals = disc_->dofmap().dirichlet_values(
            [&](mesh::BoundaryTag t) { return bc_.is_dirichlet(t); }, g);
        for (const auto& [dof, v] : vals) x[static_cast<std::size_t>(dof)] = v;
    }
    // Lift: rhs <- rhs - H x0 on free dofs, then solve for the correction
    // with homogeneous constraints.
    std::vector<double> hx(n);
    apply(x, hx);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = is_dirichlet_[i] ? 0.0 : rhs[i] - hx[i];

    const auto masked_apply = [&](std::span<const double> in, std::span<double> out) {
        std::vector<double> tmp(in.begin(), in.end());
        for (std::size_t i = 0; i < n; ++i)
            if (is_dirichlet_[i]) tmp[i] = 0.0;
        apply(tmp, out);
        for (std::size_t i = 0; i < n; ++i)
            if (is_dirichlet_[i]) out[i] = in[i];
    };
    std::vector<double> dx(n, 0.0);
    const la::CgResult res = la::pcg(masked_apply, inv_diag_, rhs, dx, opts_);
    last_iters_ = res.iterations;
    if (!res.converged && res.residual_norm > 1e-6)
        throw std::runtime_error("HelmholtzPCG: CG failed to converge");
    blaslite::daxpy(1.0, dx, x);

    std::vector<double> modal(disc_->modal_size());
    disc_->scatter(x, modal);
    return modal;
}

} // namespace nektar
