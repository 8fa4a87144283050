#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "mesh/mesh.hpp"
#include "nektar/discretization.hpp"
#include "netsim/netmodel.hpp"

/// \file probes.hpp
/// Per-layer probes: each calls one layer's public functions at a shape
/// taken from the workload's own run, times the calls, and records the op
/// count and bytes the kernels compute for them.  Used by traced runs only.
namespace perfbench {

/// BandedCholesky::factor and ::solve on an SPD band matrix of the solver's
/// n and kd (la.factor_s, la.factor_gflops, la.solve_ms).
void probe_banded(Result& r, std::size_t n, std::size_t kd);

/// Discretization::to_quad and ::weak_inner on one whole field
/// (compute.to_quad_us, compute.weak_inner_us).
void probe_transforms(Result& r, const nektar::Discretization& disc);

/// HelmholtzPCG::solve and ::apply on `disc` with the ALE pressure problem's
/// boundary conditions (la.pcg_solve_ms, la.pcg_iter_us, nektar.pcg_apply_us).
void probe_pcg(Result& r, const std::shared_ptr<const nektar::Discretization>& disc,
               double tolerance);

/// fft::rfft + irfft over `lines` z-lines of length `nz` (fft.zline_us).
void probe_fft(Result& r, std::size_t nz, std::size_t lines);

/// Comm::alltoall with `block` doubles per peer on `nprocs` fiber ranks
/// (simmpi.alltoall_us, host time per collective across all ranks).
void probe_alltoall(Result& r, int nprocs, std::size_t block);

/// Comm::allreduce_sum of `count` doubles (simmpi.allreduce_us).
void probe_allreduce(Result& r, int nprocs, std::size_t count);

/// GatherScatter::sum over the dofs each rank owns under `part`
/// (gs.sum_us, host time per collective sum across all ranks).
void probe_gs(Result& r, const mesh::Mesh& m, std::size_t order, const std::vector<int>& part,
              int nprocs);

/// The network every simmpi workload and probe runs on (the tables' probe
/// model: 10 us latency, 100 Mbit/s); virtual times are priced on it.
netsim::NetworkModel probe_network();

} // namespace perfbench
