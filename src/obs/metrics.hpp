#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>

/// \file metrics.hpp
/// A run's named counters, gauges and power-of-two histograms with
/// deterministic (name-sorted) ordering, so they can be embedded in a
/// RunReport and diffed across runs.  Each report owns its own Metrics:
/// there is no process-global registry.
namespace obs {

/// Power-of-two bucketed histogram: each sample lands in the bucket of its
/// binary exponent (frexp), so merging and serialising are exact and the
/// bucket set is deterministic for a deterministic sample stream.
struct Histogram {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::map<int, std::uint64_t> buckets; ///< binary exponent -> samples

    void observe(double v);
    [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// One run's metrics, as embedded in its RunReport's `metrics` block.
struct Metrics {
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
};

} // namespace obs
