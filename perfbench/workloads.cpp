/// The four workloads.  Each builds its problem through public
/// constructors, times every phase and step around the public calls, checks
/// every step, and (in traced runs) reads the library's own accounting and
/// runs the layer probes at the shapes the run used.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <thread>

#include "bench.hpp"
#include "lab/evaluator.hpp"
#include "lab/fault_profiles.hpp"
#include "lab/service.hpp"
#include "machine/machine_model.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_ale.hpp"
#include "nektar/ns_fourier.hpp"
#include "nektar/ns_serial.hpp"
#include "netsim/netmodel.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/partition.hpp"
#include "probes.hpp"
#include "simmpi/simmpi.hpp"

namespace perfbench {
namespace {

constexpr int kTimeOrder = 2;

/// Steady steps per trajectory.  From their impulsive start the fixed-mesh
/// solvers diverge after some 120 (fourier_wake) to 350 (serial_bluff)
/// steps, so every trajectory restarts from the initial field after this
/// many steps; the cached operators are kept, so a restart costs no set-up.
constexpr int kTrajectory = 60;

/// True before steady step `steady` (0-based) when a new trajectory starts.
bool restarts_before(int steady) { return steady > 0 && steady % kTrajectory == 0; }

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

/// Sizes the host thread pool for a workload (never above nproc).
int use_pool(unsigned threads) {
    const unsigned n = std::min(threads, std::max(1u, std::thread::hardware_concurrency()));
    parallel::set_num_threads(n);
    return static_cast<int>(n);
}

bool on_body(double x, double y) { return std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6; }

bool all_finite(std::span<const double> v) {
    return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

/// The seed's initial-field perturbation: a smooth O(1e-2) disturbance of
/// the uniform inflow whose wavenumbers and phase depend on the seed class.
struct Perturbation {
    double eps, a, b, phase;
    explicit Perturbation(std::uint64_t seed) {
        const double k = static_cast<double>(seed % kSeedClasses);
        eps = 0.01;
        a = 0.7 + 0.05 * k;
        b = 0.9 - 0.03 * k;
        phase = 0.4 * k;
    }
    [[nodiscard]] double u(double x, double y) const {
        return 1.0 + eps * std::sin(a * x + phase) * std::cos(b * y);
    }
    [[nodiscard]] double v(double x, double y) const {
        return eps * std::cos(a * y + phase) * std::sin(b * x);
    }
};

/// Splits a steady loop's time in two: steps before the midpoint run with
/// the tracer off, steps after it with the tracer on (traced runs only), so
/// trace.overhead_frac compares the two halves of one process.
struct TraceSplit {
    bool enabled = false;
    std::size_t first_traced = 0; ///< index into Result::op_ms
    void maybe_enable(bool trace, double elapsed, double seconds, std::size_t index) {
        if (!trace || enabled || elapsed < 0.5 * seconds) return;
        obs::TracerConfig cfg;
        cfg.lane_capacity = std::size_t{1} << 16;
        obs::tracer().enable(cfg);
        enabled = true;
        first_traced = index;
    }
    void finish(Result& r) const {
        if (!enabled) return;
        obs::tracer().disable();
        const std::vector<double> off(r.op_ms.begin(), r.op_ms.begin() + first_traced);
        const std::vector<double> on(r.op_ms.begin() + first_traced, r.op_ms.end());
        if (!off.empty() && !on.empty())
            r.layers["trace.overhead_frac"] = median(on) / median(off) - 1.0;
        r.shape["trace_untraced_samples"] = static_cast<double>(off.size());
        r.shape["trace_traced_samples"] = static_cast<double>(on.size());
        obs::tracer().reset();
    }
};

/// Per-phase and per-step agreement between the fiber ranks of one
/// World::run.  The first rank to finish a steady step decides whether the
/// loop stops after it, so every rank runs the same steps without extra
/// messages; the last rank's arrival stamps the step's end time.
class RankSync {
public:
    RankSync(const Options& o, Result& r, int nprocs, int min_steady, Clock::time_point t0)
        : o_(o), r_(r), nprocs_(nprocs), min_steady_(min_steady), t0_(t0) {}

    /// Called by every rank after phase or step `id`; true = stop after it.
    bool arrive(int id) {
        const std::lock_guard<std::mutex> lock(mu_);
        int& n = count_[id];
        if (n == 0 && id >= kTimeOrder) decision_[id] = decide(id);
        if (++n == nprocs_) done_[id] = seconds_since(t0_);
        return decision_[id];
    }
    /// Seconds from t0 to the moment the last rank finished `id`.
    [[nodiscard]] double done(int id) const {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = done_.find(id);
        return it == done_.end() ? -1.0 : it->second;
    }
    /// Counts step `k` failed once, however many ranks report it.
    void mark_failed(int k, const std::string& why) {
        const std::lock_guard<std::mutex> lock(mu_);
        if (failed_steps_.insert(k).second) r_.fail(why);
    }
    /// Id stamped when every rank has restarted its trajectory before step k.
    static int restart_id(int k) { return -1000 - k; }
    /// Moves the stamps of steady steps [kTimeOrder, last] into the result;
    /// a step's time runs from the previous step (or the restart) to its end.
    void collect(int last) {
        for (int k = kTimeOrder; k <= last; ++k) {
            ++r_.attempted;
            const double from = restarts_before(k - kTimeOrder) ? done(restart_id(k)) : done(k - 1);
            r_.op_ms.push_back(1e3 * (done(k) - from));
        }
        split_.finish(r_);
    }

private:
    bool decide(int k) {
        const auto it = done_.find(kTimeOrder - 1);
        const double elapsed = it == done_.end() ? 0.0 : seconds_since(t0_) - it->second;
        const int steady = k + 1 - kTimeOrder;
        split_.maybe_enable(o_.trace, elapsed, o_.seconds, static_cast<std::size_t>(steady));
        return steady >= min_steady_ && elapsed >= o_.seconds;
    }

    const Options& o_;
    Result& r_;
    int nprocs_, min_steady_;
    Clock::time_point t0_;
    TraceSplit split_;
    mutable std::mutex mu_;
    std::map<int, int> count_;
    std::map<int, char> decision_;
    std::map<int, double> done_;
    std::set<int> failed_steps_;
};

constexpr int kPhaseDisc = -2, kPhaseSolver = -1; // step ids are >= 0

/// Rank-side accounting of the steady loop, merged after World::run.
struct RankTotals {
    simmpi::CommLog log_delta;
    double virtual_s = 0.0;
    double flops = 0.0;
};

/// Adds `sign` times every count of `b` into `a`.
void accumulate(simmpi::CommLog& a, const simmpi::CommLog& b, int sign) {
    for (const auto& [stage, events] : b)
        for (const auto& [key, n] : events) a[stage][key] += sign > 0 ? n : -n;
}

simmpi::CommLog log_delta(const simmpi::CommLog& end, const simmpi::CommLog& start) {
    simmpi::CommLog d = end;
    accumulate(d, start, -1);
    return d;
}

/// One rank's steady-loop accounting: its comm log and virtual clock from
/// the loop's start, less what trajectory restarts spent.
class RankMeter {
public:
    explicit RankMeter(simmpi::Comm& c) : c_(c), log0_(c.log()), vwall0_(c.wall_time()) {}

    /// Runs `init` (a trajectory restart), keeping its messages and virtual
    /// time out of the loop's accounting.
    template <class F>
    void restart(F&& init) {
        const simmpi::CommLog before = c_.log();
        const double v0 = c_.wall_time();
        init();
        accumulate(excluded_, log_delta(c_.log(), before), 1);
        excluded_virtual_ += c_.wall_time() - v0;
    }
    [[nodiscard]] const simmpi::CommLog& start_log() const noexcept { return log0_; }
    [[nodiscard]] RankTotals finish(const perf::StageBreakdown& bd) const {
        RankTotals t;
        t.log_delta = log_delta(c_.log(), log0_);
        accumulate(t.log_delta, excluded_, -1);
        t.virtual_s = (c_.wall_time() - vwall0_ - excluded_virtual_) / bd.steps;
        t.flops = static_cast<double>(bd.total_counts().flops) / bd.steps;
        return t;
    }

private:
    simmpi::Comm& c_;
    simmpi::CommLog log0_, excluded_;
    double vwall0_, excluded_virtual_ = 0.0;
};

/// Message count, logged bytes, op count and the most frequent block sizes
/// summed over ranks; virtual time per step is the slowest rank's.
struct LogSummary {
    double msgs = 0.0, bytes = 0.0, flops = 0.0, virtual_max = 0.0;
    std::map<simmpi::CommKind, std::map<std::size_t, std::uint64_t>> sizes;
    std::map<simmpi::CommKind, std::uint64_t> rank0_count;

    /// Rank 0's events of `kind`: for a collective, the number of calls.
    [[nodiscard]] double rank0(simmpi::CommKind kind) const {
        const auto it = rank0_count.find(kind);
        return it == rank0_count.end() ? 0.0 : static_cast<double>(it->second);
    }
};

LogSummary summarise(const std::vector<RankTotals>& ranks) {
    LogSummary s;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        s.flops += ranks[r].flops;
        s.virtual_max = std::max(s.virtual_max, ranks[r].virtual_s);
        for (const auto& [stage, events] : ranks[r].log_delta)
            for (const auto& [key, n] : events) {
                s.msgs += static_cast<double>(n);
                s.bytes += static_cast<double>(n) * static_cast<double>(key.bytes);
                s.sizes[key.kind][key.bytes] += n;
                if (r == 0) s.rank0_count[key.kind] += n;
            }
    }
    return s;
}

/// The per-step layer metrics every simmpi workload reads from its ranks.
void record_comm_layers(Result& r, const LogSummary& s, double steps) {
    r.layers["nektar.step_mflop"] = s.flops / 1e6;
    r.layers["simmpi.msgs_per_step"] = s.msgs / steps;
    r.layers["simmpi.bytes_per_step"] = s.bytes / steps;
    r.layers["simmpi.virtual_step_s"] = s.virtual_max;
}

std::size_t common_block(const LogSummary& s, simmpi::CommKind kind) {
    const auto it = s.sizes.find(kind);
    if (it == s.sizes.end() || it->second.empty()) return 0;
    const auto best = std::max_element(it->second.begin(), it->second.end(),
                                       [](const auto& a, const auto& b) { return a.second < b.second; });
    return best->first / sizeof(double);
}

void record_setup_phases(Result& r, double disc_end, double solver_end, double ramp_end) {
    r.layers["nektar.disc_build_s"] = disc_end;
    r.layers["nektar.solver_build_s"] = solver_end - disc_end;
    r.layers["nektar.ramp_s"] = ramp_end - solver_end;
}

} // namespace

// ---------------------------------------------------------------------------
// serial_bluff: Table 1's problem, one thread.

Result run_serial_bluff(const Options& o) {
    Result r;
    r.pool_threads = use_pool(1);
    constexpr int min_steady = 20;
    r.check_step = kTimeOrder + min_steady;
    const Perturbation pert(o.seed);

    nektar::SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.time_order = kTimeOrder;
    opts.trace = o.trace;
    opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };

    for (int rep = 0; rep < o.setups; ++rep) {
        const auto t0 = Clock::now();
        mesh::BluffBodyParams p;
        p.n_upstream = 6;
        p.n_wake = 10;
        p.n_body = 3;
        p.n_side = 4;
        const auto disc = std::make_shared<nektar::Discretization>(
            std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p)), 6);
        const double disc_end = seconds_since(t0);
        nektar::SerialNS2d ns(disc, opts);
        const double solver_end = seconds_since(t0);
        const auto init = [&] {
            ns.set_initial([&](double x, double y) { return pert.u(x, y); },
                           [&](double x, double y) { return pert.v(x, y); });
        };
        init();
        const auto check = [&] {
            ++r.attempted;
            if (!all_finite(ns.u_quad()) || !all_finite(ns.v_quad()) || !all_finite(ns.p_modal()))
                r.fail("serial_bluff: non-finite field after step " +
                       std::to_string(ns.steps_taken()));
        };
        for (int s = 0; s < kTimeOrder; ++s) {
            ns.step();
            check();
        }
        const double setup = seconds_since(t0);
        r.setup_s.push_back(setup);
        if (rep + 1 < o.setups) continue;

        // ---- steady loop: closed, one step after another ----------------
        ns.breakdown() = {};
        TraceSplit split;
        const auto loop_t0 = Clock::now();
        int steady = 0;
        while (steady < min_steady || seconds_since(loop_t0) < o.seconds) {
            if (restarts_before(steady)) init();
            split.maybe_enable(o.trace, seconds_since(loop_t0), o.seconds, r.op_ms.size());
            const auto ts = Clock::now();
            ns.step();
            r.op_ms.push_back(1e3 * seconds_since(ts));
            ++steady;
            check();
            if (steady == r.check_step - kTimeOrder) {
                std::vector<double> e(ns.u_quad().size());
                for (std::size_t i = 0; i < e.size(); ++i)
                    e[i] = ns.u_quad()[i] * ns.u_quad()[i] + ns.v_quad()[i] * ns.v_quad()[i];
                r.observables["kinetic_energy"] = {0.5 * disc->integrate(e)};
                r.observables["divergence_norm"] = {ns.divergence_norm()};
            }
        }
        r.wall_s = setup + seconds_since(loop_t0);
        split.finish(r);
        if (!o.trace) continue;

        // ---- per-layer: the solver's own accounting + probes -------------
        record_setup_phases(r, disc_end, solver_end, setup);
        const perf::StageBreakdown& bd = ns.breakdown();
        const char* stages[] = {"transform",   "nonlinear",     "extrapolate",    "poisson_rhs",
                                "poisson_solve", "helmholtz_rhs", "helmholtz_solve"};
        double stage_ms = 0.0;
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            const double ms = 1e3 * bd.host_seconds[s] / bd.steps;
            r.layers[std::string("nektar.stage.") + stages[s - 1] + "_ms"] = ms;
            stage_ms += ms;
        }
        r.layers["nektar.step_mflop"] = static_cast<double>(bd.total_counts().flops) / bd.steps / 1e6;
        const std::size_t n = disc->dofmap().num_global(), kd = disc->dofmap().bandwidth();
        r.shape["n"] = static_cast<double>(n);
        r.shape["kd"] = static_cast<double>(kd);
        r.shape["order"] = 6;
        probe_banded(r, n, kd);
        probe_transforms(r, *disc);
        // One pressure and two velocity factorisations in set-up, the same
        // three systems solved every step.
        const double p50 = median(r.op_ms);
        r.layers["attrib.step_frac"] = stage_ms / p50;
        r.extra["attrib.step_frac_kernels"] = 3.0 * r.layers["la.solve_ms"] / p50;
        r.layers["attrib.setup_frac"] =
            (r.layers["nektar.disc_build_s"] + 3.0 * r.layers["la.factor_s"]) / setup;
    }
    return r;
}

// ---------------------------------------------------------------------------
// fourier_wake: Table 2's problem, P = 8 fiber ranks, one mode per rank.

Result run_fourier_wake(const Options& o) {
    Result r;
    constexpr int nprocs = 8;
    r.pool_threads = use_pool(2);
    constexpr int min_steady = 20;
    r.check_step = kTimeOrder + min_steady;
    const Perturbation pert(o.seed);

    nektar::FourierNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.time_order = kTimeOrder;
    opts.num_modes = nprocs;
    opts.trace = o.trace;
    opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };

    for (int rep = 0; rep < o.setups; ++rep) {
        const bool measure = rep + 1 == o.setups;
        const auto t0 = Clock::now();
        mesh::BluffBodyParams p;
        p.n_upstream = 4;
        p.n_wake = 6;
        p.n_body = 2;
        p.n_side = 3;
        const auto base_mesh = std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p));
        RankSync sync(o, r, nprocs, min_steady, t0);
        std::vector<RankTotals> totals(nprocs);
        std::vector<double> energies(3 * nprocs, 0.0);
        std::shared_ptr<const nektar::Discretization> disc0;
        std::atomic<int> last_step{-1};
        simmpi::World world(nprocs, probe_network());
        world.run([&](simmpi::Comm& c) {
            // Barriers keep the set-up phases apart across ranks, so each
            // phase's end stamp covers that phase's work only.
            const auto disc = std::make_shared<nektar::Discretization>(base_mesh, 4);
            sync.arrive(kPhaseDisc);
            c.barrier();
            nektar::FourierNS ns(disc, opts, &c);
            sync.arrive(kPhaseSolver);
            c.barrier();
            const auto init = [&] {
                ns.set_initial([&](double x, double y, double z) {
                                   return pert.u(x, y) + 0.05 * std::sin(z);
                               },
                               [&](double x, double y, double) { return pert.v(x, y); },
                               [&](double, double, double z) { return 0.05 * std::cos(z); });
            };
            init();
            const auto check = [&](int k) {
                for (int comp = 0; comp < 3; ++comp)
                    for (std::size_t pl = 0; pl < 2 * ns.local_modes(); ++pl)
                        if (!all_finite(ns.plane_quad(comp, pl))) {
                            sync.mark_failed(k, "fourier_wake: non-finite field after step " +
                                                    std::to_string(k + 1));
                            return;
                        }
            };
            for (int k = 0; k < kTimeOrder; ++k) {
                ns.step();
                check(k);
                sync.arrive(k);
            }
            if (!measure) return;
            if (c.rank() == 0) disc0 = disc;
            RankMeter meter(c);
            ns.breakdown() = {};
            for (int k = kTimeOrder;; ++k) {
                if (restarts_before(k - kTimeOrder)) {
                    meter.restart(init);
                    sync.arrive(RankSync::restart_id(k));
                }
                ns.step();
                check(k);
                if (k == r.check_step - 1)
                    for (int comp = 0; comp < 3; ++comp)
                        energies[static_cast<std::size_t>(3 * c.rank() + comp)] =
                            ns.mode_energy(comp, 0);
                if (sync.arrive(k)) {
                    if (c.rank() == 0) last_step = k;
                    break;
                }
            }
            totals[static_cast<std::size_t>(c.rank())] = meter.finish(ns.breakdown());
        });
        r.attempted += kTimeOrder; // ramp steps; collect() adds the steady ones
        const double setup = sync.done(kTimeOrder - 1);
        r.setup_s.push_back(setup);
        if (!measure) continue;
        sync.collect(last_step);
        r.wall_s = sync.done(last_step);
        double total_e = 0.0;
        for (double e : energies) total_e += e;
        r.observables["mode_energy"] = energies;
        r.observables["kinetic_energy"] = {total_e};
        if (!o.trace) continue;

        record_setup_phases(r, sync.done(kPhaseDisc), sync.done(kPhaseSolver), setup);
        const LogSummary s = summarise(totals);
        const double nsteady = static_cast<double>(last_step + 1 - kTimeOrder);
        record_comm_layers(r, s, nsteady);
        const std::size_t n = disc0->dofmap().num_global(), kd = disc0->dofmap().bandwidth();
        const std::size_t block = common_block(s, simmpi::CommKind::Alltoall);
        const std::size_t nz = 2 * opts.num_modes;
        r.shape["n"] = static_cast<double>(n);
        r.shape["kd"] = static_cast<double>(kd);
        r.shape["order"] = 4;
        r.shape["P"] = nprocs;
        r.shape["alltoall_block_doubles"] = static_cast<double>(block);
        r.shape["nz"] = static_cast<double>(nz);
        r.shape["zlines"] = static_cast<double>(disc0->quad_size());
        probe_banded(r, n, kd);
        probe_transforms(r, *disc0);
        probe_fft(r, nz, disc0->quad_size());
        if (block > 0) probe_alltoall(r, nprocs, block);
        // Per step every rank solves its mode's two planes: one pressure and
        // three velocity systems each (8 solves); set-up factors one pressure
        // and two velocity-order operators per mode.  Solves and factors run
        // concurrently on the pool; alltoalls are collective.
        const double alltoalls = s.rank0(simmpi::CommKind::Alltoall) / nsteady;
        const double pool = r.pool_threads;
        const double explained_ms = 8.0 * nprocs * r.layers["la.solve_ms"] / pool +
                                    alltoalls * r.layers["simmpi.alltoall_us"] / 1e3;
        r.layers["attrib.step_frac"] = explained_ms / median(r.op_ms);
        r.layers["attrib.setup_frac"] =
            (r.layers["nektar.disc_build_s"] + 3.0 * nprocs * r.layers["la.factor_s"] / pool) /
            setup;
    }
    return r;
}

// ---------------------------------------------------------------------------
// ale_flap: Table 3's problem, P = 4 fiber ranks, PCG + gather-scatter.

Result run_ale_flap(const Options& o) {
    Result r;
    constexpr int nprocs = 4;
    constexpr std::size_t order = 4;
    r.pool_threads = use_pool(2);
    constexpr int min_steady = 4;
    r.check_step = kTimeOrder + min_steady;
    const Perturbation pert(o.seed);

    nektar::AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.time_order = kTimeOrder;
    opts.cg.tolerance = 1e-8;
    opts.trace = o.trace;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(4.0 * t); };
    opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };
    opts.v_bc = [&opts](double x, double y, double t) {
        return on_body(x, y) ? opts.body_velocity(t) : 0.0;
    };
    const std::size_t max_iters = opts.cg.max_iterations;

    for (int rep = 0; rep < o.setups; ++rep) {
        const bool measure = rep + 1 == o.setups;
        const auto t0 = Clock::now();
        const mesh::Mesh m = mesh::flapping_body_mesh(3);
        partition::Graph g;
        m.dual_graph(g.xadj, g.adjncy);
        const std::vector<int> part = partition::partition_graph(g, nprocs);
        const double mesh_end = seconds_since(t0);
        RankSync sync(o, r, nprocs, min_steady, t0);
        std::vector<RankTotals> totals(nprocs);
        std::vector<double> ke(nprocs, 0.0), div2(nprocs, 0.0);
        std::vector<double> p_iters;
        std::vector<RankTotals> ramp(nprocs);
        std::atomic<int> last_step{-1};
        simmpi::World world(nprocs, probe_network());
        world.run([&](simmpi::Comm& c) {
            nektar::AleNS2d ns(m, order, opts, &c, &part);
            sync.arrive(kPhaseSolver);
            c.barrier();
            const simmpi::CommLog log_built = c.log();
            const auto init = [&] {
                ns.set_initial([&](double x, double y) { return pert.u(x, y); },
                               [&](double x, double y) { return pert.v(x, y); });
            };
            init();
            const auto check = [&](int k) {
                if (!all_finite(ns.u_quad()) || !all_finite(ns.v_quad()))
                    sync.mark_failed(k, "ale_flap: non-finite field after step " +
                                            std::to_string(k + 1));
                else if (ns.last_pressure_iterations() >= max_iters)
                    sync.mark_failed(k, "ale_flap: pressure PCG hit the iteration cap at step " +
                                            std::to_string(k + 1));
            };
            for (int k = 0; k < kTimeOrder; ++k) {
                ns.step();
                check(k);
                sync.arrive(k);
            }
            if (!measure) return;
            RankMeter meter(c);
            ns.breakdown() = {};
            for (int k = kTimeOrder;; ++k) {
                if (restarts_before(k - kTimeOrder)) {
                    meter.restart(init);
                    sync.arrive(RankSync::restart_id(k));
                }
                ns.step();
                check(k);
                if (c.rank() == 0) p_iters.push_back(static_cast<double>(ns.last_pressure_iterations()));
                if (k == r.check_step - 1) {
                    const auto& d = ns.disc();
                    const auto& u = ns.u_quad();
                    const auto& v = ns.v_quad();
                    std::vector<double> e(u.size()), um(d.modal_size()), vm(d.modal_size()),
                        dudx(u.size()), dudy(u.size()), dvdx(u.size()), dvdy(u.size());
                    for (std::size_t i = 0; i < e.size(); ++i) e[i] = u[i] * u[i] + v[i] * v[i];
                    d.project(u, um);
                    d.project(v, vm);
                    d.grad_from_modal(um, dudx, dudy);
                    d.grad_from_modal(vm, dvdx, dvdy);
                    for (std::size_t i = 0; i < e.size(); ++i) dudx[i] += dvdy[i];
                    const double l2 = d.l2_norm(dudx);
                    ke[static_cast<std::size_t>(c.rank())] = 0.5 * d.integrate(e);
                    div2[static_cast<std::size_t>(c.rank())] = l2 * l2;
                }
                if (sync.arrive(k)) {
                    if (c.rank() == 0) last_step = k;
                    break;
                }
            }
            totals[static_cast<std::size_t>(c.rank())] = meter.finish(ns.breakdown());
            ramp[static_cast<std::size_t>(c.rank())].log_delta =
                log_delta(meter.start_log(), log_built);
        });
        r.attempted += kTimeOrder;
        const double setup = sync.done(kTimeOrder - 1);
        r.setup_s.push_back(setup);
        if (!measure) continue;
        sync.collect(last_step);
        r.wall_s = sync.done(last_step);
        double ke_sum = 0.0, div_sum = 0.0;
        for (int i = 0; i < nprocs; ++i) {
            ke_sum += ke[static_cast<std::size_t>(i)];
            div_sum += div2[static_cast<std::size_t>(i)];
        }
        r.observables["kinetic_energy"] = {ke_sum};
        r.observables["divergence_norm"] = {std::sqrt(div_sum)};
        if (!o.trace) continue;

        // The mesh and partition are this solver's discretisation set-up;
        // each rank builds its sub-discretisation inside the constructor.
        record_setup_phases(r, mesh_end, sync.done(kPhaseSolver), setup);
        const LogSummary s = summarise(totals);
        const double nsteady = static_cast<double>(last_step + 1 - kTimeOrder);
        record_comm_layers(r, s, nsteady);
        r.layers["la.pcg_iters"] = mean(p_iters);
        const std::size_t count = std::max<std::size_t>(1, common_block(s, simmpi::CommKind::Allreduce));
        r.shape["order"] = order;
        r.shape["P"] = nprocs;
        r.shape["elements"] = static_cast<double>(m.num_elements());
        r.shape["allreduce_doubles"] = static_cast<double>(count);
        const auto full = std::make_shared<nektar::Discretization>(
            std::make_shared<mesh::Mesh>(m), order, /*renumber=*/false);
        r.shape["n"] = static_cast<double>(full->dofmap().num_global());
        probe_pcg(r, full, opts.cg.tolerance);
        probe_transforms(r, *full);
        probe_allreduce(r, nprocs, count);
        probe_gs(r, m, order, part, nprocs);
        // Every CG iteration (pressure, velocity and mesh-velocity solves)
        // runs two dot-product allreduces, so half the allreduces per step
        // counts the step's iterations.  Each costs one operator apply over
        // the whole mesh (spread over the pool), one gather-scatter sum and
        // the two allreduces; the geometry rebuild and RHS work stay
        // unexplained.
        const double cg_iters = s.rank0(simmpi::CommKind::Allreduce) / nsteady / 2.0;
        r.shape["cg_iterations_per_step"] = cg_iters;
        const double per_iter_us = r.layers["la.pcg_iter_us"] / r.pool_threads +
                                   r.layers["gs.sum_us"] + 2.0 * r.layers["simmpi.allreduce_us"];
        r.layers["attrib.step_frac"] = cg_iters * per_iter_us / 1e3 / median(r.op_ms);
        // Set-up: the mesh and partition, then the ramp steps' CG iterations.
        const double ramp_iters = summarise(ramp).rank0(simmpi::CommKind::Allreduce) / 2.0;
        r.layers["attrib.setup_frac"] =
            (r.layers["nektar.disc_build_s"] + ramp_iters * per_iter_us / 1e6) / setup;
    }
    return r;
}

// ---------------------------------------------------------------------------
// lab_mix: the seeded model-fidelity scenario mix through lab::Service.

namespace {

/// splitmix64: the request mix is a pure function of the seed.
struct Rng {
    std::uint64_t state;
    std::uint64_t next() {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr std::size_t kDistinct = 200, kStream = 20000, kIdentitySamples = 5;
/// Order statistics kept per round: every round serves the same number of
/// requests, so the rounds' equally spaced order statistics together are an
/// equal-weight sketch of all latencies (keeps memory flat across runs).
constexpr std::size_t kSketch = 201;
constexpr unsigned kClients = 2;

std::vector<lab::ScenarioRequest> make_pool(Rng& rng) {
    const auto& machines = machine::roster();
    const auto& nets = netsim::alltoall_roster();
    const auto& faults = lab::fault_roster();
    const int ranks[] = {2, 4, 8, 16, 32, 64};
    std::vector<lab::ScenarioRequest> pool;
    std::set<std::string> keys;
    while (pool.size() < kDistinct) {
        lab::ScenarioRequest req;
        req.machine = machines[rng.below(machines.size())].name;
        req.net = nets[rng.below(nets.size())].name;
        req.fault = faults[rng.below(faults.size())].name;
        if (req.fault == "clean") req.fault.clear();
        req.ranks = ranks[rng.below(6)];
        req.dof_per_rank = 50000.0 + 10000.0 * static_cast<double>(rng.below(90));
        req.transpose = rng.below(4) == 0 ? "pencil" : "";
        req.fidelity = "model";
        if (keys.insert(req.store_key()).second) pool.push_back(std::move(req));
    }
    return pool;
}

/// 95 % references into the pool, 5 % fresh dof variants (misses).
std::vector<std::string> make_stream(const std::vector<lab::ScenarioRequest>& pool, Rng& rng) {
    std::vector<std::string> stream;
    stream.reserve(kStream);
    for (std::size_t i = 0; i < kStream; ++i) {
        if (rng.below(20) == 0) {
            lab::ScenarioRequest fresh = pool[rng.below(pool.size())];
            fresh.dof_per_rank += 1000.0 * static_cast<double>(1 + rng.below(999));
            stream.push_back(fresh.canonical_json());
        } else {
            stream.push_back(pool[rng.below(pool.size())].canonical_json());
        }
    }
    return stream;
}

} // namespace

Result run_lab_mix(const Options& o) {
    Result r;
    r.pool_threads = use_pool(1);
    Rng rng{o.seed * 0x2545f4914f6cdd1dull + 1999};
    const auto pool = make_pool(rng);
    const auto stream = make_stream(pool, rng);
    std::vector<std::string> pool_json;
    for (const auto& q : pool) pool_json.push_back(q.canonical_json());

    std::vector<double> round_wall, round_qps, cold_us, untraced_ms, traced_ms;
    std::uint64_t hits = 0, repeated = 0;
    bool identity_ok = true;
    double store_bytes = 0.0;
    const auto start = Clock::now();
    // Whole rounds until the time is up: each opens a fresh service on an
    // empty store, primes it with every distinct scenario (cold), then
    // serves the repeated stream from kClients closed-loop clients.  The
    // store is kept in memory: on a disk store, writeback of earlier rounds'
    // files swung round times several-fold from one run to the next.
    for (int round = 0; round < 3 || seconds_since(start) < o.seconds; ++round) {
        const bool traced = o.trace && seconds_since(start) >= 0.5 * o.seconds;
        if (traced && !obs::tracer().enabled()) {
            obs::TracerConfig cfg;
            cfg.lane_capacity = std::size_t{1} << 16;
            obs::tracer().enable(cfg);
        }
        const auto t0 = Clock::now();
        lab::Service service;
        for (const auto& json : pool_json) {
            const auto ts = Clock::now();
            const lab::Answer a = service.answer_json(json);
            cold_us.push_back(1e6 * seconds_since(ts));
            ++r.attempted;
            if (!a.error.empty() || a.report_json.empty() || a.cache_hit)
                r.fail("lab_mix cold: " + (a.error.empty() ? "unexpected hit or empty answer" : a.error));
        }
        r.setup_s.push_back(seconds_since(t0));

        std::vector<double> lat_ms(stream.size());
        std::vector<char> hit(stream.size(), 0), bad(stream.size(), 0);
        std::atomic<std::size_t> cursor{0};
        const auto load_t0 = Clock::now();
        {
            std::vector<std::jthread> clients;
            for (unsigned c = 0; c < kClients; ++c)
                clients.emplace_back([&] {
                    for (;;) {
                        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
                        if (i >= stream.size()) break;
                        const auto ts = Clock::now();
                        const lab::Answer a = service.answer_json(stream[i]);
                        lat_ms[i] = 1e3 * seconds_since(ts);
                        hit[i] = a.cache_hit;
                        bad[i] = !a.error.empty() || a.report_json.empty();
                    }
                });
        }
        const double load_s = seconds_since(load_t0);
        round_qps.push_back(static_cast<double>(stream.size()) / load_s);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            ++r.attempted;
            ++repeated;
            hits += static_cast<std::uint64_t>(hit[i]);
            if (bad[i]) r.fail("lab_mix repeated: request " + std::to_string(i) + " unanswered");
        }
        std::sort(lat_ms.begin(), lat_ms.end());
        auto& sink = traced ? traced_ms : untraced_ms;
        for (std::size_t q = 0; q < kSketch; ++q)
            sink.push_back(lat_ms[q * (lat_ms.size() - 1) / (kSketch - 1)]);
        r.op_count += lat_ms.size();

        // Memoisation contract: a served hit is byte-identical, under the
        // hit mask, to a cold evaluation on a fresh evaluator.
        lab::Evaluator fresh;
        for (std::size_t s = 0; s < kIdentitySamples; ++s) {
            const std::size_t i = (o.seed + 37 * s + static_cast<std::size_t>(round)) % pool.size();
            const lab::Answer served = service.answer_json(pool_json[i]);
            ++r.attempted;
            if (!served.cache_hit ||
                lab::mask_cache_hit(served.report_json) != fresh.evaluate(pool[i]).to_canonical_json()) {
                identity_ok = false;
                r.fail("lab_mix: served bytes of scenario " + pool[i].store_key() +
                       " differ from a cold evaluation");
            }
        }
        round_wall.push_back(seconds_since(t0));
        store_bytes = 0.0;
        for (const auto& key : service.store().keys())
            store_bytes += static_cast<double>(service.store().get(key)->size());
    }
    if (!identity_ok) r.failed = r.attempted; // every hit may carry wrong bytes

    r.op_ms = untraced_ms;
    r.op_ms.insert(r.op_ms.end(), traced_ms.begin(), traced_ms.end());
    r.wall_s = median(round_wall);
    r.extra["lab_qps"] = median(round_qps);
    r.extra["lab_p50_us"] = 1e3 * median(r.op_ms);
    r.extra["lab_p99_us"] = 1e3 * percentile(r.op_ms, 0.99);
    r.extra["lab_cold_p50_us"] = median(cold_us);
    r.extra["lab_rounds"] = static_cast<double>(round_wall.size());
    if (!o.trace) return r;

    obs::tracer().disable();
    obs::tracer().reset();
    if (!untraced_ms.empty() && !traced_ms.empty())
        r.layers["trace.overhead_frac"] = median(traced_ms) / median(untraced_ms) - 1.0;
    r.layers["lab.hit_rate"] = static_cast<double>(hits) / static_cast<double>(repeated);
    r.layers["lab.store_bytes"] = store_bytes;
    std::vector<double> parse_us, eval_us, put_us;
    lab::Evaluator eval;
    lab::RunReportStore store; // in memory, like the timed service's
    for (std::size_t i = 0; i < pool.size(); ++i) {
        auto ts = Clock::now();
        const auto req = lab::ScenarioRequest::parse(pool_json[i]);
        parse_us.push_back(1e6 * seconds_since(ts));
        ts = Clock::now();
        const std::string bytes = eval.evaluate(req).to_canonical_json();
        eval_us.push_back(1e6 * seconds_since(ts));
        ts = Clock::now();
        store.put(req.store_key(), bytes);
        put_us.push_back(1e6 * seconds_since(ts));
    }
    r.layers["lab.parse_us"] = median(parse_us);
    r.layers["lab.evaluate_us"] = median(eval_us);
    r.layers["lab.store_put_us"] = median(put_us);
    r.shape["distinct"] = kDistinct;
    r.shape["stream"] = kStream;
    r.shape["clients"] = kClients;
    // A hit is a parse plus a store lookup; a cold request adds an
    // evaluation and a store write.
    r.layers["attrib.step_frac"] = r.layers["lab.parse_us"] / (1e3 * median(r.op_ms));
    r.layers["attrib.setup_frac"] =
        static_cast<double>(kDistinct) *
        (r.layers["lab.parse_us"] + r.layers["lab.evaluate_us"] + r.layers["lab.store_put_us"]) /
        1e6 / median(r.setup_s);
    return r;
}

} // namespace perfbench
