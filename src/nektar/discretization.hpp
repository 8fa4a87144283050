#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "compute/backend.hpp"
#include "mesh/mesh.hpp"
#include "nektar/dofmap.hpp"
#include "nektar/element_ops.hpp"

/// \file discretization.hpp
/// A mesh + expansion order + all per-element operators + the global dof map:
/// the shared state every solver (Helmholtz, Navier-Stokes serial/Fourier/ALE)
/// builds on.  Fields are flat arrays of per-element blocks in either modal
/// (coefficient) or quadrature (physical) space.
///
/// Batched elemental engine: elements are grouped by expansion (shape +
/// order).  A flat field restricted to a group of contiguous same-size
/// element blocks *is* a column-major matrix with one element per column, so
/// the whole-group transform is a single dgemm against the shared basis
/// matrix instead of one dgemv per element — the dgemv->dgemm batching the
/// paper's kernel study motivates (dgemm sustains several times the dgemv
/// flop rate at these sizes).  Non-contiguous groups gather/scatter through
/// thread-local scratch panels.  The `_planes` variants fuse all local
/// Fourier planes of a 3-D field into the batch dimension.
///
/// The transforms themselves are evaluated by one compute::Backend
/// (compute/backend.hpp), built at construction and picked by the order:
/// SumFactorBackend (staged 1-D tensor contractions, O(P^3) per quad
/// element) from compute::kSumFactorMinOrder up, the batched dense
/// DenseBackend (O(P^4)) below it.
namespace nektar {

/// One group of elements sharing an expansion (and hence basis matrices).
struct ElemGroup {
    std::shared_ptr<const spectral::Expansion> exp;
    std::vector<std::size_t> elems; ///< element indices, ascending
    bool contiguous = false;        ///< indices consecutive => blocks adjacent
    std::size_t modal_begin = 0;    ///< flat offset of the first modal block
    std::size_t quad_begin = 0;     ///< flat offset of the first quad block
    /// Column-major operator copies: basis()/dbasis().transposed() viewed as
    /// nq-by-nm column-major matrices (leading dimension nq).
    la::DenseMatrix basis_cm, d1_cm, d2_cm;
    /// A maximal run of group-consecutive elements sharing one ElemMatrices
    /// instance (congruent geometry).  Projection solves a run's columns with
    /// a single multi-RHS sweep of the shared Cholesky factor.
    struct MatrixRun {
        std::size_t first = 0; ///< starting position within `elems`
        std::size_t count = 0;
        const ElemMatrices* mats = nullptr;
    };
    std::vector<MatrixRun> runs;
};

class Discretization {
public:
    Discretization(std::shared_ptr<const mesh::Mesh> m, std::size_t order,
                   bool renumber = true);
    // The compute engine holds a back-pointer to this object.
    Discretization(const Discretization&) = delete;
    Discretization& operator=(const Discretization&) = delete;

    [[nodiscard]] const mesh::Mesh& mesh() const noexcept { return *mesh_; }
    [[nodiscard]] std::size_t order() const noexcept { return order_; }
    [[nodiscard]] std::size_t num_elements() const noexcept { return ops_.size(); }
    [[nodiscard]] const ElementOps& ops(std::size_t e) const noexcept { return ops_[e]; }
    [[nodiscard]] const DofMap& dofmap() const noexcept { return dofmap_; }

    /// Flat field sizes and per-element offsets.
    [[nodiscard]] std::size_t modal_size() const noexcept { return modal_size_; }
    [[nodiscard]] std::size_t quad_size() const noexcept { return quad_size_; }
    [[nodiscard]] std::size_t modal_offset(std::size_t e) const noexcept {
        return modal_off_[e];
    }
    [[nodiscard]] std::size_t quad_offset(std::size_t e) const noexcept { return quad_off_[e]; }
    [[nodiscard]] std::span<double> modal_block(std::span<double> f, std::size_t e) const {
        return f.subspan(modal_off_[e], ops_[e].num_modes());
    }
    [[nodiscard]] std::span<const double> modal_block(std::span<const double> f,
                                                      std::size_t e) const {
        return f.subspan(modal_off_[e], ops_[e].num_modes());
    }
    [[nodiscard]] std::span<double> quad_block(std::span<double> f, std::size_t e) const {
        return f.subspan(quad_off_[e], ops_[e].num_quad());
    }
    [[nodiscard]] std::span<const double> quad_block(std::span<const double> f,
                                                     std::size_t e) const {
        return f.subspan(quad_off_[e], ops_[e].num_quad());
    }

    /// Element groups of the batched engine (one per distinct expansion).
    [[nodiscard]] const std::vector<ElemGroup>& groups() const noexcept { return groups_; }
    /// True when one contiguous group covers the mesh (whole-field panels).
    [[nodiscard]] bool single_group() const noexcept { return single_group_; }
    /// Per-element flat offsets (indexable by the group element lists).
    [[nodiscard]] const std::vector<std::size_t>& modal_offsets() const noexcept {
        return modal_off_;
    }
    [[nodiscard]] const std::vector<std::size_t>& quad_offsets() const noexcept {
        return quad_off_;
    }

    /// The compute engine every transform runs on (picked by the order).
    [[nodiscard]] const compute::Backend& engine() const noexcept { return *engine_; }

    /// Whole-field transforms (batched per element group, evaluated by the
    /// compute engine).
    void to_quad(std::span<const double> modal, std::span<double> quad) const;
    void project(std::span<const double> quad, std::span<double> modal) const;
    /// rhs += weak inner product (f, phi_i) for every element, batched.
    void weak_inner(std::span<const double> quad, std::span<double> rhs) const;
    /// Physical-space gradient of a modal field at the quadrature points.
    void grad_from_modal(std::span<const double> modal, std::span<double> dudx,
                         std::span<double> dudy) const;

    /// Multi-plane variants: `nplanes` whole fields stored back to back
    /// (plane p at offset p*modal_size() / p*quad_size()).  All planes join
    /// the batch dimension — on a single-group mesh each transform is one
    /// dgemm over every element of every plane.
    void to_quad_planes(std::span<const double> modal, std::span<double> quad,
                        std::size_t nplanes) const;
    void project_planes(std::span<const double> quad, std::span<double> modal,
                        std::size_t nplanes) const;
    void weak_inner_planes(std::span<const double> quad, std::span<double> rhs,
                           std::size_t nplanes) const;
    void grad_from_modal_planes(std::span<const double> modal, std::span<double> dudx,
                                std::span<double> dudy, std::size_t nplanes) const;

    /// Fused nonlinear convective term (see compute::Backend::convect_planes):
    ///   nu = -(au du/dx + av du/dy),  nv = -(au dv/dx + av dv/dy),
    /// all fields at the quadrature points, batched over element groups.
    void convect_planes(std::span<const double> au, std::span<const double> av,
                        std::span<const double> u, std::span<const double> v,
                        std::span<double> nu, std::span<double> nv, std::size_t nplanes) const;

    /// Evaluates a function at every quadrature point.
    void eval_at_quad(const std::function<double(double, double)>& f,
                      std::span<double> quad) const;

    /// Scatter a global dof vector into local (per-element, signed) modal form.
    void scatter(std::span<const double> global, std::span<double> modal) const;
    /// Direct-stiffness gather: global[g] += sign * local (used by weak RHS).
    void gather_add(std::span<const double> modal, std::span<double> global) const;

    /// Quadrature of a physical-space field over the domain.
    [[nodiscard]] double integrate(std::span<const double> quad) const;
    /// L2 norm of a physical-space field.
    [[nodiscard]] double l2_norm(std::span<const double> quad) const;
    /// L2 error of a physical-space field against an exact solution.
    [[nodiscard]] double l2_error(std::span<const double> quad,
                                  const std::function<double(double, double)>& exact) const;

private:
    std::shared_ptr<const mesh::Mesh> mesh_;
    std::size_t order_;
    std::vector<ElementOps> ops_;
    DofMap dofmap_;
    std::vector<std::size_t> modal_off_, quad_off_;
    std::size_t modal_size_ = 0, quad_size_ = 0;
    std::vector<ElemGroup> groups_;
    bool single_group_ = false; ///< one contiguous group covers the mesh
    std::unique_ptr<compute::Backend> engine_;
};

} // namespace nektar
