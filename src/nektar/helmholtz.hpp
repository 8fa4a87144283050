#pragma once

#include <functional>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "la/banded.hpp"
#include "la/cg.hpp"
#include "nektar/discretization.hpp"

/// \file helmholtz.hpp
/// Global Helmholtz/Poisson solvers:  (grad u, grad v) + lambda (u, v) = (f, v).
///
/// Both paths are statically condensed (HelmholtzCondensation): element
/// interiors are eliminated per matrix class (Figure 10's boundary-first
/// ordering) and only the vertex and edge dofs enter a global solve.  They
/// differ in how that boundary system is solved, exactly as in the paper:
///  * HelmholtzDirect — the assembled symmetric *banded* boundary system is
///    factored once by Cholesky (the LAPACK dpbtrf/dpbtrs path of stages 5/7,
///    Figure 12; also the per-Fourier-mode solver of NekTar-F).
///  * HelmholtzPCG — matrix-free diagonally preconditioned conjugate
///    gradient on the boundary system (the NekTar-ALE path, which also runs
///    distributed with gather-scatter assembly through injected hooks).
namespace nektar {

/// Which boundary tags get Dirichlet treatment; everything else is natural
/// (zero Neumann).  `pin_first_dof` regularises the all-Neumann Poisson
/// problem (pure periodic/enclosed domains).
struct HelmholtzBC {
    std::set<mesh::BoundaryTag> dirichlet;
    bool pin_first_dof = false;
    [[nodiscard]] bool is_dirichlet(mesh::BoundaryTag t) const {
        return dirichlet.count(t) > 0;
    }
};

/// Static condensation, shared by both solvers.  Interior (bubble) modes
/// never couple across elements, so each element's interiors are eliminated
/// before the global solve (Karniadakis & Sherwin's substructuring): with
/// the elemental Helmholtz matrix A = L + lambda M split into boundary (b)
/// and interior (i) modes, X = A_ii^{-1} A_ib and the Schur block
/// S = A_bb - A_bi X are formed once per matrix class (congruent elements
/// share them), in the unsigned local frame.  Mode signs are +-1, so an
/// element's signed Schur block is D_b S D_b.  Around the boundary solve, a
/// solve costs two elemental products per element: [-X^T; A_ii^{-1}] f_i
/// before it and u_i -= X u_b after it.
class HelmholtzCondensation {
public:
    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }
    [[nodiscard]] double lambda() const noexcept { return lambda_; }
    /// Size of the condensed system: the vertex and edge dofs that remain
    /// once every element interior is eliminated.
    [[nodiscard]] std::size_t boundary_dofs() const noexcept { return bdof_.size(); }
    /// Dirichlet dofs in the discretization's global numbering.
    [[nodiscard]] const std::vector<int>& dirichlet_dofs() const noexcept {
        return dirichlet_dofs_;
    }
    /// Fills a global-length vector with Dirichlet values from g (zeros
    /// elsewhere); convenience for solve_global callers.
    [[nodiscard]] std::vector<double> dirichlet_vector(
        const std::function<double(double, double)>& g) const;

protected:
    /// Condenses every matrix class (schur_ holds each class's S) and lists
    /// the boundary dofs in bdof_ in ascending global order.
    HelmholtzCondensation(std::shared_ptr<const Discretization> disc, double lambda,
                          HelmholtzBC bc);

    /// The condensation of one matrix class, column-major (ld = rows).
    struct ClassCondensation {
        std::size_t nm = 0; ///< modes per element
        std::size_t ni = 0; ///< interior modes (the last ni of nm)
        std::size_t schur = 0; ///< offset of the class's S in schur_
        std::vector<double> fwd; ///< nm x ni: [-X^T; A_ii^{-1}]
        std::vector<double> x;   ///< ni x nmb: X = A_ii^{-1} A_ib
    };

    /// Condenses the class with elemental matrices `mats` and `nmb` boundary
    /// modes; its Schur block S goes to `schur`, column-major with leading
    /// dimension `ld`.
    static ClassCondensation condense(const ElemMatrices& mats, std::size_t nmb,
                                      double lambda, double* schur, std::size_t ld);
    /// Global dof -> index in bdof_ (-1 for interior dofs).
    [[nodiscard]] std::vector<int> condensed_index() const;
    /// Forward elimination: w = [-X^T f_i; A_ii^{-1} f_i] per element, then
    /// w is gathered into rhs, whose boundary entries become the condensed
    /// RHS (its interior entries pick up A_ii^{-1} f_i; nothing reads them).
    /// Charges, per run with ni > 0, one dgemm_cm of 2 nm ni c + nm c flops
    /// when its group is contiguous, else per element one dgemv_t of
    /// 2 ni nm + ni flops.
    void condense_rhs(std::span<double> rhs, std::span<double> w) const;
    /// Back-substitution from the boundary solution (read from u's boundary
    /// entries, global numbering) and condense_rhs's w: returns the modal
    /// solution with u_i = A_ii^{-1} f_i - X u_b.  Charges, per run with
    /// ni > 0, one dgemm_cm of 2 ni nmb c + ni c flops when contiguous, else
    /// per element one dgemv_t of 2 nmb ni + nmb flops.
    [[nodiscard]] std::vector<double> back_substitute(std::span<const double> u,
                                                      std::span<const double> w) const;
    /// Calls f(group, run, class) for every matrix run, in run_class_ order.
    template <class F>
    void for_each_run(F&& f) const;

    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    std::vector<int> dirichlet_dofs_;
    std::vector<ClassCondensation> classes_;
    /// Class of every ElemGroup::MatrixRun, in groups()/runs order.
    std::vector<std::size_t> run_class_;
    /// Class of every element.
    std::vector<std::size_t> elem_class_;
    /// Schur block S of every class, column-major with leading dimension
    /// blaslite::padded_ld(nmb) and zero padding rows, at
    /// ClassCondensation::schur: the slab the PCG's fused apply reads.
    std::vector<double> schur_;
    /// Condensed index -> global dof.
    std::vector<int> bdof_;
};

/// Direct solve of the condensed system: the signed Schur blocks are
/// assembled into a banded system over the vertex and edge dofs (numbered by
/// a boundary-only RCM pass) and factored once.
class HelmholtzDirect : public HelmholtzCondensation {
public:
    HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                    HelmholtzBC bc);

    /// Solves with forcing given at quadrature points and Dirichlet data g.
    /// Returns the solution in per-element modal form (disc->modal_size()).
    /// Pass g = nullptr for homogeneous Dirichlet data.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Variant with the weak RHS already assembled into the discretization's
    /// global dofs (the Navier-Stokes stepper builds these itself); `rhs` is
    /// consumed.  `dirichlet` is global-length, read at dirichlet_dofs().
    ///
    /// Operation counts, all through blaslite kernels: the banded solve
    /// charges 4 nb (kb + 1) flops (nb = boundary_dofs(), kb = bandwidth()),
    /// plus condense_rhs and back_substitute.
    [[nodiscard]] std::vector<double> solve_global(std::vector<double> rhs,
                                                   std::span<const double> dirichlet) const;

    /// Half-bandwidth of the factored condensed (boundary) system.
    [[nodiscard]] std::size_t bandwidth() const noexcept { return chol_.bandwidth(); }
    /// Bytes of the solver's priced working set: the condensed band factor,
    /// nb (kb + 1) doubles, plus the per-class elemental matrices (nm ni +
    /// ni nmb doubles per matrix class).
    [[nodiscard]] std::size_t factor_bytes() const noexcept;

private:
    la::BandedCholesky chol_;
    /// Condensed-matrix columns of Dirichlet dofs (for RHS lifting), in
    /// global dofs: (row, dirichlet dof, value).
    std::vector<std::tuple<int, int, double>> lift_;
};

/// Jacobi PCG on the condensed system.  Each iteration applies the signed
/// Schur blocks in one pass over the elements (blaslite's fused
/// gather_gemm_scatter, one call per congruent run), preconditioned by the
/// assembled diag(S); the interiors are back-substituted once CG stops.
/// The CG residual is the full system's: back-substitution satisfies the
/// interior rows exactly.
class HelmholtzPCG : public HelmholtzCondensation {
public:
    /// How a distributed solve reaches the other ranks.  A serial solve
    /// leaves every member empty.
    struct Hooks {
        /// Sums a vector in the discretization's global numbering over every
        /// rank holding its dofs (gather-scatter assembly).
        std::function<void(std::span<double>)> assemble;
        /// 1 / multiplicity of each global dof, so that a dof shared by
        /// several ranks counts once in a dot product (empty = all ones).
        std::span<const double> dot_weights;
        /// Sums a few doubles over every rank in place.
        std::function<void(std::span<double>)> reduce;
    };

    HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda, HelmholtzBC bc,
                 la::CgOptions opts = {.max_iterations = 2000, .tolerance = 1e-10},
                 Hooks hooks = {});

    /// Same contract as HelmholtzDirect::solve.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Same contract as HelmholtzDirect::solve_global, except that under an
    /// assemble hook `rhs` is this rank's unassembled contribution: the
    /// condensed RHS is assembled once.  CG stops at ||b - H u||_2 <=
    /// tolerance on the full system; if it stops short (iteration cap, or
    /// p.Ap <= 0) this throws std::runtime_error naming the iterations and
    /// the residual.
    [[nodiscard]] std::vector<double> solve_global(std::vector<double> rhs,
                                                   std::span<const double> dirichlet) const;

    /// Number of CG iterations of the most recent solve.
    [[nodiscard]] std::size_t last_iterations() const noexcept { return last_iters_; }

    /// The full, uncondensed operator y = H x = (L + lambda M) x over every
    /// global dof, assembled through the dof map and the assemble hook.  For
    /// residual checks and the benchmark probe; a solve never applies it.
    void apply(std::span<const double> x, std::span<double> y) const;

private:
    /// ap = S p on the condensed dofs, assembled; identity on Dirichlet dofs.
    /// `global` stages the assemble hook's global-length vector.
    void apply_condensed(std::span<const double> p, std::span<double> ap,
                         std::vector<double>& global) const;
    /// Sums v over the ranks through the assemble hook (no-op without one).
    void assemble_condensed(std::span<double> v, std::vector<double>& global) const;

    la::CgOptions opts_;
    Hooks hooks_;
    /// Condensed index and sign of every element boundary mode, elements in
    /// run order (for_each_run), modes 0..nmb-1 within each.
    std::vector<int> slot_;
    std::vector<double> slot_sign_;
    /// Condensed indices of the Dirichlet dofs.
    std::vector<std::size_t> fixed_;
    std::vector<double> inv_diag_;    ///< 1 / assembled diag(S); 1 on fixed dofs
    std::vector<double> dot_weights_; ///< hooks_.dot_weights on the condensed dofs
    mutable std::size_t last_iters_ = 0;
};

} // namespace nektar
