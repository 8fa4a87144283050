#pragma once

#include <functional>
#include <map>
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
/// Two paths, exactly as in the paper:
///  * HelmholtzDirect — statically condensed direct solve: element interiors
///    are eliminated per matrix class (Figure 10's boundary-first ordering),
///    and the assembled symmetric *banded* boundary system is factored once
///    by Cholesky (the LAPACK dpbtrf/dpbtrs path of stages 5/7, Figure 12;
///    also the per-Fourier-mode solver of NekTar-F).
///  * HelmholtzPCG — matrix-free diagonally preconditioned conjugate
///    gradient over the elemental matrices (the NekTar-ALE path, which also
///    runs distributed with gather-scatter assembly).
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

/// Statically condensed direct solver.  Interior (bubble) modes never couple
/// across elements, so each element's interiors are eliminated before the
/// global solve (Karniadakis & Sherwin's substructuring): with the elemental
/// Helmholtz matrix A = L + lambda M split into boundary (b) and interior (i)
/// modes, X = A_ii^{-1} A_ib and the Schur block S = A_bb - A_bi X are formed
/// once per matrix class (congruent elements share them), in the unsigned
/// local frame.  Mode signs are +-1, so an element's signed Schur block is
/// D_b S D_b; the blocks are assembled into a banded system over the vertex
/// and edge dofs only (numbered by a boundary-only RCM pass) and factored
/// once.  A solve then costs, besides that banded solve, two elemental
/// products per element: [-X^T; A_ii^{-1}] f_i before it and u_i -= X u_b
/// after it.
class HelmholtzDirect {
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
    /// charges 4 nb (kb + 1) flops (nb = boundary_dofs(), kb = bandwidth()).
    /// Each run of congruent elements with nm modes, ni interior modes and
    /// nmb = nm - ni boundary modes charges, if its ni > 0, one dgemm_cm per
    /// pass over its c columns when its element group is contiguous,
    ///   2 nm ni c + nm c   (condense)  and  2 ni nmb c + ni c   (back-solve),
    /// and otherwise one dgemv_t per element and pass,
    ///   2 ni nm + ni       (condense)  and  2 nmb ni + nmb      (back-solve).
    [[nodiscard]] std::vector<double> solve_global(std::vector<double> rhs,
                                                   std::span<const double> dirichlet) const;

    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }
    [[nodiscard]] double lambda() const noexcept { return lambda_; }
    /// Half-bandwidth of the factored condensed (boundary) system.
    [[nodiscard]] std::size_t bandwidth() const noexcept { return chol_.bandwidth(); }
    /// Size of the condensed system: the vertex and edge dofs that remain
    /// once every element interior is eliminated.
    [[nodiscard]] std::size_t boundary_dofs() const noexcept { return bdof_.size(); }
    /// Bytes of the solver's priced working set: the condensed band factor,
    /// nb (kb + 1) doubles, plus the per-class elemental matrices (nm ni +
    /// ni nmb doubles per matrix class).
    [[nodiscard]] std::size_t factor_bytes() const noexcept;
    /// Dirichlet dofs in the discretization's global numbering.
    [[nodiscard]] const std::vector<int>& dirichlet_dofs() const noexcept {
        return dirichlet_dofs_;
    }
    /// Fills a global-length vector with Dirichlet values from g (zeros
    /// elsewhere); convenience for solve_global callers.
    [[nodiscard]] std::vector<double> dirichlet_vector(
        const std::function<double(double, double)>& g) const;

private:
    /// The condensation of one matrix class, column-major (ld = rows).
    struct ClassCondensation {
        std::size_t nm = 0; ///< modes per element
        std::size_t ni = 0; ///< interior modes (the last ni of nm)
        std::vector<double> fwd; ///< nm x ni: [-X^T; A_ii^{-1}]
        std::vector<double> x;   ///< ni x nmb: X = A_ii^{-1} A_ib
    };

    /// Condenses the class with elemental matrices `mats` and `nmb` boundary
    /// modes; its Schur block S goes to `schur` (row-major nmb x nmb).
    static ClassCondensation condense(const ElemMatrices& mats, std::size_t nmb,
                                      double lambda, la::DenseMatrix& schur);
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
    /// Condensed index -> global dof.
    std::vector<int> bdof_;
    la::BandedCholesky chol_;
    /// Condensed-matrix columns of Dirichlet dofs (for RHS lifting), in
    /// global dofs: (row, dirichlet dof, value).
    std::vector<std::tuple<int, int, double>> lift_;
};

class HelmholtzPCG {
public:
    HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda, HelmholtzBC bc,
                 la::CgOptions opts = {.max_iterations = 2000, .tolerance = 1e-10});

    /// Same contract as HelmholtzDirect::solve.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Number of CG iterations of the most recent solve.
    [[nodiscard]] std::size_t last_iterations() const noexcept { return last_iters_; }

    /// Global matrix-vector product y = H x (assembled through the dof map);
    /// exposed for the distributed ALE solver and tests.
    void apply(std::span<const double> x, std::span<double> y) const;

private:
    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    std::vector<char> is_dirichlet_;
    std::vector<double> inv_diag_;
    la::CgOptions opts_;
    /// Fused elemental operator H = L + lambda*M per matrix class; symmetric,
    /// so its row-major buffer doubles as the column-major left operand of
    /// the batched per-run dgemm in apply().
    std::map<const ElemMatrices*, la::DenseMatrix> fused_;
    mutable std::size_t last_iters_ = 0;
};

} // namespace nektar
