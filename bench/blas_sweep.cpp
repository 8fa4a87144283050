/// Figures 1-6: speed of the BLAS kernels against array size, PC vs
/// supercomputers, in the paper's figure order.
///
/// Each figure plots one BLAS kernel against array size for two machine
/// groups (left: SP2-Thin2, SP2-Silver, Muses, AP3000, Onyx2; right: T3E,
/// SP2-P2SC, Muses — the paper's layout).  The per-machine series are the
/// analytic model of src/machine; an extra "host(meas.)" column reports the
/// same kernel actually executed by src/blaslite on this machine, tying the
/// models to real code.  The RunReport holds one case per (figure, size).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "blaslite/blas.hpp"
#include "machine/machine_model.hpp"

namespace {

/// The machines of the left and right plots, in the paper's legend order.
const std::vector<std::string> kMachines = {"SP2-Thin2", "SP2-Silver", "Muses", "AP3000",
                                            "Onyx2",     "T3E",        "P2SC"};

struct Kernel {
    const char* figure;      ///< e.g. "Figure 1"
    const char* name;        ///< e.g. "dcopy"
    const char* unit;        ///< "MB/sec" or "Mflop/sec"
    bool size_is_matrix_dim; ///< dgemv/dgemm sweep the matrix dimension
    machine::KernelShape (*shape)(std::size_t n);
    /// Runs the real kernel at size n; returns the rate in the figure's unit.
    double (*host_rate)(std::size_t n, double min_seconds);
    std::vector<std::size_t> sizes;
};

double host_rate_dcopy(std::size_t n, double min_seconds) {
    std::vector<double> x(n, 1.0), y(n);
    const double t = benchutil::time_per_call([&] { blaslite::dcopy(x, y); }, min_seconds);
    return 2.0 * static_cast<double>(n) * sizeof(double) / t / 1e6;
}

double host_rate_daxpy(std::size_t n, double min_seconds) {
    std::vector<double> x(n, 1.0), y(n, 0.5);
    const double t =
        benchutil::time_per_call([&] { blaslite::daxpy(1.0001, x, y); }, min_seconds);
    return 2.0 * static_cast<double>(n) / t / 1e6;
}

double host_rate_ddot(std::size_t n, double min_seconds) {
    std::vector<double> x(n, 1.0), y(n, 0.5);
    volatile double sink = 0.0;
    const double t =
        benchutil::time_per_call([&] { sink = blaslite::ddot(x, y); }, min_seconds);
    (void)sink;
    return 2.0 * static_cast<double>(n) / t / 1e6;
}

double host_rate_dgemv(std::size_t n, double min_seconds) {
    std::vector<double> a(n * n, 0.5), x(n, 1.0), y(n, 0.0);
    const double t = benchutil::time_per_call(
        [&] { blaslite::dgemv(1.0, a.data(), n, n, n, x.data(), 0.0, y.data()); },
        min_seconds);
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) / t / 1e6;
}

double host_rate_dgemm(std::size_t n, double min_seconds) {
    std::vector<double> a(n * n, 0.5), b(n * n, 0.25), c(n * n, 0.0);
    const double t = benchutil::time_per_call(
        [&] { blaslite::dgemm_square(1.0, a.data(), b.data(), 0.0, c.data(), n); },
        min_seconds);
    return 2.0 * std::pow(static_cast<double>(n), 3.0) / t / 1e6;
}

/// Rate in the figure's unit from the model.
double model_rate(const machine::MachineModel& m, const Kernel& k, std::size_t n) {
    const machine::KernelShape shape = k.shape(n);
    return k.unit[1] == 'B' ? machine::predict_mbps(m, shape)
                            : machine::predict_mflops(m, shape);
}

void run(const Kernel& k, double min_seconds, perf::RunReport& rep) {
    std::printf("%s: speed of %s in %s against array size (paper's axes).\n", k.figure, k.name,
                k.unit);
    std::printf("Series are the calibrated 1999-machine models; host(meas.) is the\n"
                "blaslite kernel measured on this machine for reference.\n\n");
    const char* axis = k.size_is_matrix_dim ? "n" : "bytes";
    std::vector<std::string> headers = {axis};
    for (const auto& m : kMachines) headers.push_back(m);
    headers.push_back("host(meas.)");
    benchutil::Table table(headers);
    table.print_header();
    for (std::size_t n : k.sizes) {
        perf::Case c;
        c.labels["figure"] = k.figure;
        c.labels["kernel"] = k.name;
        c.labels["unit"] = k.unit;
        const std::size_t size = k.size_is_matrix_dim ? n : n * sizeof(double);
        c.values[axis] = static_cast<double>(size);
        std::vector<std::string> row = {std::to_string(size)};
        for (const auto& name : kMachines) {
            const double rate = model_rate(machine::by_name(name), k, n);
            c.values["model." + name] = rate;
            row.push_back(benchutil::fmt(rate));
        }
        const double host = k.host_rate(n, min_seconds);
        c.values["host_measured"] = host;
        row.push_back(benchutil::fmt(host));
        table.print_row(row);
        rep.cases.push_back(std::move(c));
    }
    std::printf("\n");
}

/// Level-1 sweep sizes: 100 bytes to 1 MB, geometric (the paper's x-range).
std::vector<std::size_t> level1_sizes() {
    std::vector<std::size_t> s;
    for (std::size_t n = 16; n * sizeof(double) <= (1u << 20); n = n * 2) s.push_back(n);
    return s;
}

/// Figure 6: the small matrices (n = 2..20) that dominate NekTar's
/// elemental operations.
std::vector<std::size_t> small_dgemm_sizes() {
    std::vector<std::size_t> s;
    for (std::size_t n = 2; n <= 20; ++n) s.push_back(n);
    return s;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("blas_sweep", argc, argv);
    // Host timing window per size; --smoke trades precision for speed.
    const double min_seconds =
        cli.min_seconds > 0.0 ? cli.min_seconds : (cli.request.smoke ? 0.002 : 0.02);
    const Kernel kernels[] = {
        {"Figure 1", "dcopy", "MB/sec", false, machine::shape_dcopy, host_rate_dcopy,
         level1_sizes()},
        {"Figure 2", "daxpy", "Mflop/sec", false, machine::shape_daxpy, host_rate_daxpy,
         level1_sizes()},
        {"Figure 3", "ddot", "Mflop/sec", false, machine::shape_ddot, host_rate_ddot,
         level1_sizes()},
        // n <= 150: the paper sweeps row sizes up to ~1200 bytes.
        {"Figure 4", "dgemv", "Mflop/sec", true, machine::shape_dgemv, host_rate_dgemv,
         {4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 150}},
        {"Figure 5", "dgemm", "Mflop/sec", true, machine::shape_dgemm, host_rate_dgemm,
         {8, 16, 32, 64, 96, 128, 192, 256, 384, 512}},
        {"Figure 6", "dgemm", "Mflop/sec", true, machine::shape_dgemm, host_rate_dgemm,
         small_dgemm_sizes()},
    };
    perf::RunReport rep = perf::report("blas_sweep");
    for (const Kernel& k : kernels) run(k, min_seconds, rep);
    cli.finish(std::move(rep));
    return 0;
}
