#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file bench.hpp
/// Shared types of perfbench_driver, the end-to-end benchmark.  It runs one
/// workload through the repository's public API, times it from outside and
/// prints raw samples as one JSON object; run.py turns those into metrics.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int setups = 3; ///< set-up repetitions; the last instance runs the steady loop
};

/// A probe's operation count and traffic as the library's kernels compute
/// them (blaslite counters are formula-derived, not hardware counters).
struct Computed {
    std::string probe;
    double flops = 0.0;
    double bytes = 0.0;
    double calls = 0.0; ///< probe calls the counts cover
};

struct Result {
    std::vector<double> setup_s;      ///< one entry per set-up repetition
    double wall_s = 0.0;              ///< set-up + steady loop of the measured instance
    std::vector<double> op_ms;        ///< steady per-step latency (lab: a per-round sketch)
    std::uint64_t op_count = 0;       ///< steady operations when op_ms is a sketch
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages
    int check_step = -1;               ///< step index the observables belong to
    std::map<std::string, std::vector<double>> observables;
    std::map<std::string, double> layers;  ///< per-layer metrics (traced runs)
    std::map<std::string, double> extra;   ///< workload-specific text-only metrics
    std::map<std::string, double> shape;   ///< probe shapes taken from the run
    std::vector<Computed> computed;
    int pool_threads = 1;

    void fail(const std::string& why) {
        ++failed;
        if (failures.size() < 8) failures.push_back(why);
    }
};

/// The seed class selects one of kSeedClasses initial-field perturbations;
/// reference observables are committed per class.
inline constexpr std::uint64_t kSeedClasses = 8;

Result run_serial_bluff(const Options& o);
Result run_fourier_wake(const Options& o);
Result run_ale_flap(const Options& o);
Result run_lab_mix(const Options& o);

} // namespace perfbench
