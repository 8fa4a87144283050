#include "nektar/discretization.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "compute/backend.hpp"

namespace nektar {

Discretization::Discretization(std::shared_ptr<const mesh::Mesh> m, std::size_t order,
                               bool renumber)
    : mesh_(std::move(m)), order_(order), dofmap_(*mesh_, order, renumber) {
    const std::size_t ne = mesh_->num_elements();
    ops_.reserve(ne);
    modal_off_.resize(ne);
    quad_off_.resize(ne);
    // One expansion per shape for the whole discretization (the global
    // make_expansion cache is shared across Discretizations but sits behind a
    // mutex; resolving each shape once here keeps construction off it), and
    // one matrix cache so congruent elements share mass/Laplacian/Cholesky.
    std::map<spectral::Shape, std::shared_ptr<const spectral::Expansion>> expansions;
    MatrixCache cache;
    for (std::size_t e = 0; e < ne; ++e) {
        const spectral::Shape shape = mesh_->element(e).shape;
        auto& exp = expansions[shape];
        if (!exp) exp = spectral::make_expansion(shape, order);
        ops_.emplace_back(*mesh_, e, exp, &cache);
        modal_off_[e] = modal_size_;
        quad_off_[e] = quad_size_;
        modal_size_ += ops_[e].num_modes();
        quad_size_ += ops_[e].num_quad();
    }

    // Group elements by expansion, in order of first appearance.
    for (std::size_t e = 0; e < ne; ++e) {
        const spectral::Expansion* exp = &ops_[e].expansion();
        auto it = std::find_if(groups_.begin(), groups_.end(),
                               [exp](const ElemGroup& g) { return g.exp.get() == exp; });
        if (it == groups_.end()) {
            ElemGroup g;
            g.exp = ops_[e].expansion_ptr();
            g.modal_begin = modal_off_[e];
            g.quad_begin = quad_off_[e];
            g.basis_cm = g.exp->basis().transposed();
            g.d1_cm = g.exp->dbasis_dxi1().transposed();
            g.d2_cm = g.exp->dbasis_dxi2().transposed();
            groups_.push_back(std::move(g));
            it = groups_.end() - 1;
        }
        it->elems.push_back(e);
    }
    for (ElemGroup& g : groups_) {
        g.contiguous = g.elems.back() - g.elems.front() + 1 == g.elems.size();
        for (std::size_t j = 0; j < g.elems.size(); ++j) {
            const ElemMatrices* id = ops_[g.elems[j]].matrix_identity();
            if (g.runs.empty() || g.runs.back().mats != id)
                g.runs.push_back({j, 1, id});
            else
                ++g.runs.back().count;
        }
    }
    single_group_ = groups_.size() == 1 && groups_.front().contiguous;

    engine_ = compute::make_backend(order_ >= compute::kSumFactorMinOrder
                                        ? compute::BackendKind::SumFactor
                                        : compute::BackendKind::Dense,
                                    *this);
}

void Discretization::to_quad(std::span<const double> modal, std::span<double> quad) const {
    to_quad_planes(modal, quad, 1);
}

void Discretization::to_quad_planes(std::span<const double> modal, std::span<double> quad,
                                    std::size_t nplanes) const {
    assert(modal.size() == modal_size_ * nplanes && quad.size() == quad_size_ * nplanes);
    engine_->to_quad_planes(modal, quad, nplanes);
}

void Discretization::weak_inner(std::span<const double> quad, std::span<double> rhs) const {
    weak_inner_planes(quad, rhs, 1);
}

void Discretization::weak_inner_planes(std::span<const double> quad, std::span<double> rhs,
                                       std::size_t nplanes) const {
    assert(quad.size() == quad_size_ * nplanes && rhs.size() == modal_size_ * nplanes);
    engine_->weak_inner_planes(quad, rhs, nplanes);
}

void Discretization::project(std::span<const double> quad, std::span<double> modal) const {
    project_planes(quad, modal, 1);
}

void Discretization::project_planes(std::span<const double> quad, std::span<double> modal,
                                    std::size_t nplanes) const {
    assert(quad.size() == quad_size_ * nplanes && modal.size() == modal_size_ * nplanes);
    engine_->project_planes(quad, modal, nplanes);
}

void Discretization::grad_from_modal(std::span<const double> modal, std::span<double> dudx,
                                     std::span<double> dudy) const {
    grad_from_modal_planes(modal, dudx, dudy, 1);
}

void Discretization::grad_from_modal_planes(std::span<const double> modal,
                                            std::span<double> dudx, std::span<double> dudy,
                                            std::size_t nplanes) const {
    assert(modal.size() == modal_size_ * nplanes);
    assert(dudx.size() == quad_size_ * nplanes && dudy.size() == quad_size_ * nplanes);
    engine_->grad_from_modal_planes(modal, dudx, dudy, nplanes);
}

void Discretization::convect_planes(std::span<const double> au, std::span<const double> av,
                                    std::span<const double> u, std::span<const double> v,
                                    std::span<double> nu, std::span<double> nv,
                                    std::size_t nplanes) const {
    assert(au.size() == quad_size_ * nplanes && av.size() == quad_size_ * nplanes);
    assert(u.size() == quad_size_ * nplanes && v.size() == quad_size_ * nplanes);
    assert(nu.size() == quad_size_ * nplanes && nv.size() == quad_size_ * nplanes);
    engine_->convect_planes(au, av, u, v, nu, nv, nplanes);
}

void Discretization::eval_at_quad(const std::function<double(double, double)>& f,
                                  std::span<double> quad) const {
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        const ElemGeometry& g = ops_[e].geometry();
        auto block = quad_block(quad, e);
        for (std::size_t q = 0; q < block.size(); ++q) block[q] = f(g.x[q], g.y[q]);
    }
}

void Discretization::scatter(std::span<const double> global, std::span<double> modal) const {
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        auto block = modal_block(modal, e);
        const auto& map = dofmap_.element_map(e);
        for (std::size_t i = 0; i < block.size(); ++i)
            block[i] = map[i].sign * global[static_cast<std::size_t>(map[i].global)];
    }
}

void Discretization::gather_add(std::span<const double> modal, std::span<double> global) const {
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        auto block = modal_block(modal, e);
        const auto& map = dofmap_.element_map(e);
        for (std::size_t i = 0; i < block.size(); ++i)
            global[static_cast<std::size_t>(map[i].global)] += map[i].sign * block[i];
    }
}

double Discretization::integrate(std::span<const double> quad) const {
    double s = 0.0;
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        const auto& wj = ops_[e].geometry().wj;
        auto block = quad_block(quad, e);
        for (std::size_t q = 0; q < block.size(); ++q) s += wj[q] * block[q];
    }
    return s;
}

double Discretization::l2_norm(std::span<const double> quad) const {
    double s = 0.0;
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        const auto& wj = ops_[e].geometry().wj;
        auto block = quad_block(quad, e);
        for (std::size_t q = 0; q < block.size(); ++q) s += wj[q] * block[q] * block[q];
    }
    return std::sqrt(s);
}

double Discretization::l2_error(std::span<const double> quad,
                                const std::function<double(double, double)>& exact) const {
    double s = 0.0;
    for (std::size_t e = 0; e < ops_.size(); ++e) {
        const ElemGeometry& g = ops_[e].geometry();
        auto block = quad_block(quad, e);
        for (std::size_t q = 0; q < block.size(); ++q) {
            const double d = block[q] - exact(g.x[q], g.y[q]);
            s += g.wj[q] * d * d;
        }
    }
    return std::sqrt(s);
}

} // namespace nektar
