#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

/// \file backend.hpp
/// The compute engine behind nektar::Discretization.
///
/// A Backend evaluates the whole-field elemental transforms (modal->quad,
/// weak inner product, L2 projection, modal gradient, and the fused
/// nonlinear convective term) over the discretization's element groups.
/// Two implementations exist:
///
///  - DenseBackend: the reference engine — the batched dense-dgemm path
///    (one basis matrix times a panel of element columns), O(P^4) work per
///    quad element.
///  - SumFactorBackend: sum-factorised tensor contractions on quad groups —
///    the 2-D operator B (x) B applied as two staged 1-D contractions
///    (dgemm over the 1-D basis), O(P^3) per element, the core Nek5000-class
///    trick.  Groups without a tensor factorisation (triangles) fall back to
///    the dense per-group path, so mixed meshes work on either backend.
///
/// The expansion order picks the engine, like the paper's dgemv-vs-dgemm
/// choice is picked by operand size: a Discretization runs SumFactorBackend
/// from kSumFactorMinOrder up and DenseBackend below it.  There is no user
/// override.  The engine name is folded into every solver's options
/// fingerprint, so a checkpoint records which engine wrote it.
namespace nektar {
class Discretization;
}

namespace compute {

enum class BackendKind : std::uint8_t {
    Dense,     ///< batched dense elemental operators (reference)
    SumFactor, ///< staged 1-D tensor contractions on quad groups
};

/// Lowest expansion order a Discretization runs on SumFactorBackend: the
/// crossover bench_hotpath reports in bench/BENCH_hotpath_baseline.json.
/// Below it the dense batch is clearly faster (4-5x at order 4); at order 8
/// the two engines are within about 20% of each other, and sum
/// factorisation pulls ahead as the order grows (1.3-2.4x at order 12).
inline constexpr std::size_t kSumFactorMinOrder = 8;

/// Stable lowercase name ("dense" / "sumfact") for fingerprints and reports.
[[nodiscard]] const char* to_string(BackendKind k) noexcept;

/// The engine every order below kSumFactorMinOrder runs on: Dense.
[[nodiscard]] constexpr BackendKind default_backend() noexcept { return BackendKind::Dense; }

/// One compute engine bound to a Discretization.  All field arguments use
/// the discretization's flat layouts; the `_planes` variants treat `nplanes`
/// whole fields stored back to back (the fused-Fourier batch dimension).
class Backend {
public:
    virtual ~Backend();
    Backend(const Backend&) = delete;
    Backend& operator=(const Backend&) = delete;

    [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
    [[nodiscard]] const char* name() const noexcept { return to_string(kind()); }

    virtual void to_quad_planes(std::span<const double> modal, std::span<double> quad,
                                std::size_t nplanes) const = 0;
    /// rhs += weak inner product (f, phi_i), batched over every element.
    virtual void weak_inner_planes(std::span<const double> quad, std::span<double> rhs,
                                   std::size_t nplanes) const = 0;
    /// L2 projection: weak inner product + elemental mass solves.  The mass
    /// matrix of a general straight-sided element does not factorise, so the
    /// Cholesky solve stage is shared by all backends (mass_solve_planes).
    virtual void project_planes(std::span<const double> quad, std::span<double> modal,
                                std::size_t nplanes) const;
    virtual void grad_from_modal_planes(std::span<const double> modal, std::span<double> dudx,
                                        std::span<double> dudy, std::size_t nplanes) const = 0;

    /// Fused nonlinear convective term at the quadrature points:
    ///   nu = -(au * du/dx + av * du/dy),  nv = -(au * dv/dx + av * dv/dy),
    /// with (au, av) the advecting velocity (= (u, v) for the serial solver;
    /// the ALE solver passes av = v - w_mesh).  Derivatives are collocation
    /// derivatives batched per element group (quad elements only — the 1-D
    /// GLL differentiation matrix is applied along each tensor direction),
    /// and the chain rule, products and sign fold into one scatter pass.
    /// The contraction order is backend-independent, so both backends give
    /// bit-identical results here.
    virtual void convect_planes(std::span<const double> au, std::span<const double> av,
                                std::span<const double> u, std::span<const double> v,
                                std::span<double> nu, std::span<double> nv,
                                std::size_t nplanes) const;

protected:
    explicit Backend(const nektar::Discretization& disc) : disc_(&disc) {}

    /// Per-element mass-matrix Cholesky solves over every plane (runs of
    /// congruent elements share one factor and solve as one multi-RHS sweep).
    void mass_solve_planes(std::span<double> modal, std::size_t nplanes) const;

    const nektar::Discretization* disc_;
};

/// Builds a backend of kind `kind` bound to `disc`; Discretization builds its
/// one engine through here.
[[nodiscard]] std::unique_ptr<Backend> make_backend(BackendKind kind,
                                                    const nektar::Discretization& disc);

} // namespace compute
