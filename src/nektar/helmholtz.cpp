#include "nektar/helmholtz.hpp"

#include <algorithm>
#include <cstdio>
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

std::vector<int> dirichlet_dof_list(const Discretization& disc, const HelmholtzBC& bc) {
    std::vector<int> dofs = disc.dofmap().boundary_dofs(
        [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); });
    if (bc.pin_first_dof && dofs.empty()) {
        // Pin a *vertex* dof: the Neumann Laplacian's null space (constants)
        // has nonzero components only on vertex dofs, so pinning a bubble or
        // edge dof would leave the matrix singular.
        const auto& map0 = disc.dofmap().element_map(0);
        dofs.push_back(map0[disc.ops(0).expansion().vertex_mode(0)].global);
    }
    return dofs;
}

/// The weak RHS (f, phi) assembled into the discretization's global dofs.
std::vector<double> assembled_weak_rhs(const Discretization& disc,
                                       std::span<const double> f_quad) {
    std::vector<double> rhs(disc.dofmap().num_global(), 0.0);
    std::vector<double> local(disc.modal_size(), 0.0);
    disc.weak_inner(f_quad, local);
    disc.gather_add(local, rhs);
    return rhs;
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

HelmholtzCondensation::ClassCondensation HelmholtzCondensation::condense(const ElemMatrices& mats,
                                                             std::size_t nmb, double lambda,
                                                             double* schur_cm,
                                                             std::size_t ld) {
    const std::size_t nm = mats.lap.rows();
    const std::size_t ni = nm - nmb;
    const auto a = [&](std::size_t i, std::size_t j) {
        return mats.lap(i, j) + lambda * mats.mass(i, j);
    };
    const auto schur = [&](std::size_t i, std::size_t j) -> double& {
        return schur_cm[i + j * ld];
    };
    ClassCondensation c{.nm = nm, .ni = ni, .schur = 0, .fwd = {}, .x = {}};
    for (std::size_t i = 0; i < nmb; ++i)
        for (std::size_t j = 0; j < nmb; ++j) schur(i, j) = a(i, j);
    if (ni == 0) return c;

    la::DenseMatrix l(ni, ni);
    for (std::size_t i = 0; i < ni; ++i)
        for (std::size_t j = 0; j < ni; ++j) l(i, j) = a(nmb + i, nmb + j);
    if (!la::cholesky_factor(l))
        throw std::runtime_error("Helmholtz: interior block not positive definite");
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
void HelmholtzCondensation::for_each_run(F&& f) const {
    std::size_t r = 0;
    for (const ElemGroup& g : disc_->groups())
        for (const ElemGroup::MatrixRun& run : g.runs) f(g, run, run_class_[r++]);
}

HelmholtzCondensation::HelmholtzCondensation(std::shared_ptr<const Discretization> disc,
                                             double lambda, HelmholtzBC bc)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)) {
    dirichlet_dofs_ = dirichlet_dof_list(*disc_, bc_);

    // Number the matrix classes, then condense each once into the slab.
    std::map<const ElemMatrices*, std::size_t> class_of;
    std::vector<std::pair<const ElemMatrices*, std::size_t>> class_mats; // (mats, nmb)
    elem_class_.resize(disc_->num_elements());
    for (const ElemGroup& g : disc_->groups()) {
        for (const ElemGroup::MatrixRun& run : g.runs) {
            const auto [it, fresh] = class_of.emplace(run.mats, class_mats.size());
            if (fresh) class_mats.emplace_back(run.mats, g.exp->num_boundary_modes());
            run_class_.push_back(it->second);
            for (std::size_t j = 0; j < run.count; ++j)
                elem_class_[g.elems[run.first + j]] = it->second;
        }
    }
    std::size_t slab = 0;
    for (const auto& [mats, nmb] : class_mats) slab += blaslite::padded_ld(nmb) * nmb;
    schur_.assign(slab, 0.0);
    slab = 0;
    for (const auto& [mats, nmb] : class_mats) {
        const std::size_t ld = blaslite::padded_ld(nmb);
        classes_.push_back(condense(*mats, nmb, lambda_, schur_.data() + slab, ld));
        classes_.back().schur = slab;
        slab += ld * nmb;
    }

    // Boundary dofs: every element's vertex and edge modes, in global order.
    const DofMap& dm = disc_->dofmap();
    std::vector<char> is_boundary(dm.num_global(), 0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i)
            is_boundary[static_cast<std::size_t>(map[i].global)] = 1;
    }
    for (std::size_t d = 0; d < is_boundary.size(); ++d)
        if (is_boundary[d]) bdof_.push_back(static_cast<int>(d));
}

std::vector<int> HelmholtzCondensation::condensed_index() const {
    std::vector<int> cidx(disc_->dofmap().num_global(), -1);
    for (std::size_t k = 0; k < bdof_.size(); ++k)
        cidx[static_cast<std::size_t>(bdof_[k])] = static_cast<int>(k);
    return cidx;
}

std::vector<double> HelmholtzCondensation::dirichlet_vector(
    const std::function<double(double, double)>& g) const {
    std::vector<double> bvals(disc_->dofmap().num_global(), 0.0);
    if (g) {
        const auto vals = disc_->dofmap().dirichlet_values(
            [&](mesh::BoundaryTag t) { return bc_.is_dirichlet(t); }, g);
        for (const auto& [dof, v] : vals) bvals[static_cast<std::size_t>(dof)] = v;
    }
    return bvals;
}

void HelmholtzCondensation::condense_rhs(std::span<double> rhs, std::span<double> w) const {
    // Local loads: an interior dof belongs to one element (sign +1), so its
    // local value is that element's f_i.
    parallel::Scratch f(disc_->modal_size());
    disc_->scatter(rhs, f.span());
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run, std::size_t k) {
        const ClassCondensation& c = classes_[k];
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
    disc_->gather_add(w, rhs);
}

std::vector<double> HelmholtzCondensation::back_substitute(std::span<const double> u,
                                                           std::span<const double> w) const {
    std::vector<double> modal(disc_->modal_size());
    disc_->scatter(u, modal);
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run, std::size_t k) {
        const ClassCondensation& c = classes_[k];
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

// ---------------------------------------------------------------------------
// Direct path
// ---------------------------------------------------------------------------

HelmholtzDirect::HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                                 HelmholtzBC bc)
    : HelmholtzCondensation(std::move(disc), lambda, std::move(bc)) {
    const DofMap& dm = disc_->dofmap();
    std::vector<char> is_dirichlet(dm.num_global(), 0);
    for (int d : dirichlet_dofs_) is_dirichlet[static_cast<std::size_t>(d)] = 1;

    // Renumber the boundary dofs by RCM.  cidx ends as global -> condensed
    // (-1 = interior).
    std::vector<int> cidx = condensed_index();
    const std::size_t nb = bdof_.size();
    std::vector<std::vector<int>> elem_bdofs(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i)
            elem_bdofs[e].push_back(cidx[static_cast<std::size_t>(map[i].global)]);
    }
    const std::vector<int> perm = boundary_rcm(elem_bdofs, nb);
    const std::vector<int> rank_dof = bdof_;
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

    // Assemble the signed Schur blocks D_b S D_b; the band is all that is
    // kept of them.
    la::SymBandedMatrix h(nb, kd);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ClassCondensation& c = classes_[elem_class_[e]];
        const std::size_t nmb = c.nm - c.ni, ld = blaslite::padded_ld(nmb);
        const double* s = schur_.data() + c.schur;
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < nmb; ++i) {
            const auto ci = static_cast<std::size_t>(cidx[static_cast<std::size_t>(map[i].global)]);
            for (std::size_t j = 0; j <= i; ++j) {
                const auto cj =
                    static_cast<std::size_t>(cidx[static_cast<std::size_t>(map[j].global)]);
                const double v = map[i].sign * map[j].sign * s[i + j * ld];
                h.add(ci, cj, (ci == cj && i != j) ? 2.0 * v : v);
            }
        }
    }
    schur_ = std::vector<double>();

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

std::vector<double> HelmholtzDirect::solve_global(std::vector<double> rhs,
                                                  std::span<const double> dirichlet) const {
    parallel::Scratch w(disc_->modal_size());
    condense_rhs(rhs, w.span());

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
    return back_substitute(rhs, w.span());
}

std::vector<double> HelmholtzDirect::solve(std::span<const double> f_quad,
                                           const std::function<double(double, double)>& g) const {
    return solve_global(assembled_weak_rhs(*disc_, f_quad), dirichlet_vector(g));
}

// ---------------------------------------------------------------------------
// PCG path
// ---------------------------------------------------------------------------

HelmholtzPCG::HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda,
                           HelmholtzBC bc, la::CgOptions opts, Hooks hooks)
    : HelmholtzCondensation(std::move(disc), lambda, std::move(bc)),
      opts_(opts),
      hooks_(std::move(hooks)) {
    // S is applied as a column-major operand: make it exactly symmetric.
    for (const ClassCondensation& c : classes_) {
        const std::size_t nmb = c.nm - c.ni, ld = blaslite::padded_ld(nmb);
        double* s = schur_.data() + c.schur;
        for (std::size_t i = 0; i < nmb; ++i)
            for (std::size_t j = 0; j < i; ++j)
                s[i + j * ld] = s[j + i * ld] = 0.5 * (s[i + j * ld] + s[j + i * ld]);
    }

    // Element boundary modes -> condensed dofs, and the assembled diag(S)
    // (signs square away).
    const DofMap& dm = disc_->dofmap();
    const std::vector<int> cidx = condensed_index();
    const std::size_t nb = bdof_.size();
    std::vector<double> diag(nb, 0.0);
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run, std::size_t k) {
        const std::size_t nmb = classes_[k].nm - classes_[k].ni, ld = blaslite::padded_ld(nmb);
        const double* s = schur_.data() + classes_[k].schur;
        for (std::size_t j = 0; j < run.count; ++j) {
            const auto& map = dm.element_map(g.elems[run.first + j]);
            for (std::size_t i = 0; i < nmb; ++i) {
                const int c = cidx[static_cast<std::size_t>(map[i].global)];
                slot_.push_back(c);
                slot_sign_.push_back(map[i].sign);
                diag[static_cast<std::size_t>(c)] += s[i + i * ld];
            }
        }
    });
    std::vector<double> global;
    assemble_condensed(diag, global);
    inv_diag_.resize(nb);
    for (std::size_t k = 0; k < nb; ++k) inv_diag_[k] = 1.0 / diag[k];
    for (int d : dirichlet_dofs_)
        fixed_.push_back(static_cast<std::size_t>(cidx[static_cast<std::size_t>(d)]));
    for (std::size_t k : fixed_) inv_diag_[k] = 1.0;
    if (!hooks_.dot_weights.empty()) {
        dot_weights_.resize(nb);
        for (std::size_t k = 0; k < nb; ++k)
            dot_weights_[k] = hooks_.dot_weights[static_cast<std::size_t>(bdof_[k])];
        hooks_.dot_weights = {};
    }
}

void HelmholtzPCG::assemble_condensed(std::span<double> v, std::vector<double>& global) const {
    if (!hooks_.assemble) return;
    global.resize(disc_->dofmap().num_global());
    for (std::size_t k = 0; k < v.size(); ++k) global[static_cast<std::size_t>(bdof_[k])] = v[k];
    hooks_.assemble(global);
    for (std::size_t k = 0; k < v.size(); ++k) v[k] = global[static_cast<std::size_t>(bdof_[k])];
}

void HelmholtzPCG::apply_condensed(std::span<const double> p, std::span<double> ap,
                                   std::vector<double>& global) const {
    std::fill(ap.begin(), ap.end(), 0.0);
    std::size_t slot = 0;
    for_each_run([&](const ElemGroup& g, const ElemGroup::MatrixRun& run, std::size_t k) {
        const std::size_t nmb = classes_[k].nm - classes_[k].ni;
        // Op counts are the unfused operator's: one dgemm_cm per contiguous
        // run, one dgemv per element of a scattered group.
        blaslite::gather_gemm_scatter(schur_.data() + classes_[k].schur, nmb, run.count,
                                      slot_.data() + slot, slot_sign_.data() + slot, p.data(),
                                      ap.data(), !g.contiguous);
        slot += nmb * run.count;
    });
    assemble_condensed(ap, global);
    for (std::size_t k : fixed_) ap[k] = p[k];
}

void HelmholtzPCG::apply(std::span<const double> x, std::span<double> y) const {
    std::fill(y.begin(), y.end(), 0.0);
    {
        parallel::Scratch xl(disc_->modal_size()), yl(disc_->modal_size());
        disc_->scatter(x, xl.span());
        // Congruent-element runs share their Laplacian/mass matrices
        // (symmetric, so the row-major buffers serve as the column-major
        // left operand).
        for (const ElemGroup& g : disc_->groups()) {
            const std::size_t nm = g.exp->num_modes();
            for (const ElemGroup::MatrixRun& run : g.runs) {
                const double* lap = run.mats->lap.data();
                const double* mass = run.mats->mass.data();
                if (g.contiguous) {
                    const std::size_t off = disc_->modal_offset(g.elems[run.first]);
                    blaslite::dgemm_cm(1.0, lap, nm, xl.data() + off, nm, 0.0, yl.data() + off,
                                       nm, nm, run.count, nm);
                    if (lambda_ != 0.0)
                        blaslite::dgemm_cm(lambda_, mass, nm, xl.data() + off, nm, 1.0,
                                           yl.data() + off, nm, nm, run.count, nm);
                } else {
                    for (std::size_t j = 0; j < run.count; ++j) {
                        const std::size_t off = disc_->modal_offset(g.elems[run.first + j]);
                        blaslite::dgemv(1.0, lap, nm, nm, nm, xl.data() + off, 0.0,
                                        yl.data() + off);
                        if (lambda_ != 0.0)
                            blaslite::dgemv(lambda_, mass, nm, nm, nm, xl.data() + off, 1.0,
                                            yl.data() + off);
                    }
                }
            }
        }
        disc_->gather_add(yl.span(), y);
    }
    if (hooks_.assemble) hooks_.assemble(y);
}

std::vector<double> HelmholtzPCG::solve_global(std::vector<double> rhs,
                                               std::span<const double> dirichlet) const {
    std::vector<double> w(disc_->modal_size());
    condense_rhs(rhs, w);

    // The condensed system on the boundary dofs; Dirichlet rows are the
    // identity, so u starts from (and keeps) the boundary values there.
    const std::size_t nb = bdof_.size();
    std::vector<double> global;
    std::vector<double> b(nb), u(nb, 0.0);
    for (std::size_t k = 0; k < nb; ++k) b[k] = rhs[static_cast<std::size_t>(bdof_[k])];
    assemble_condensed(b, global);
    for (std::size_t k : fixed_) b[k] = u[k] = dirichlet[static_cast<std::size_t>(bdof_[k])];

    const la::CgResult res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) {
            apply_condensed(in, out, global);
        },
        inv_diag_, b, u, opts_, dot_weights_,
        [&](std::span<double> v) {
            if (hooks_.reduce) hooks_.reduce(v);
        });
    last_iters_ = res.iterations;
    if (!res.converged) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "HelmholtzPCG: CG did not converge: %zu iterations, residual %.3e > "
                      "tolerance %.3e",
                      res.iterations, res.residual_norm, opts_.tolerance);
        throw std::runtime_error(msg);
    }
    for (std::size_t k = 0; k < nb; ++k) rhs[static_cast<std::size_t>(bdof_[k])] = u[k];
    return back_substitute(rhs, w);
}

std::vector<double> HelmholtzPCG::solve(std::span<const double> f_quad,
                                        const std::function<double(double, double)>& g) const {
    return solve_global(assembled_weak_rhs(*disc_, f_quad), dirichlet_vector(g));
}

} // namespace nektar
