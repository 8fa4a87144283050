#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "perf/stage_stats.hpp"
#include "simmpi/simmpi.hpp"

/// \file report.hpp
/// The RunReport: one versioned JSON schema every benchmark emits
/// (bench/run_report_schema.json is the committed contract), and
/// perf::report() — the single entry point that folds a StageBreakdown
/// and a rank's comm fault/overlap logs into it.  This replaces both the
/// per-bench hand-rolled JSON emitters and the per-subsystem total_*
/// getters that used to live on StageBreakdown / simmpi::Comm.
namespace perf {

/// One stage of the 7-stage splitting pipeline (row 0 collects comm events
/// issued outside an explicit stage and appears only when it is nonempty).
struct StageRow {
    std::size_t stage = 0;
    std::string name;  ///< stage_short_name()
    std::string group; ///< paper grouping "a"/"b"/"c" ("" for row 0)
    double flops = 0.0;
    double bytes = 0.0;
    std::uint64_t calls = 0;
    double host_seconds = 0.0;
    double fault_seconds = 0.0;
    double overlap_seconds = 0.0;
    std::uint64_t retransmits = 0;
};

/// One benchmark data point: a flat bag of numeric values plus string
/// labels (platform names, network names, ...).  Serialised as a single
/// JSON object with the two maps merged; keys must not collide.
struct Case {
    std::map<std::string, std::string> labels;
    std::map<std::string, double> values;
};

struct RunReport {
    static constexpr int kSchemaVersion = 2;

    std::string bench;                       ///< benchmark id, e.g. "table2_nektar_f"
    /// Canonical lab::ScenarioRequest JSON describing the run this report
    /// answers (schema v2's `request` block).  Empty = no request attached;
    /// serialised as `{}` so the block is always present.  Kept as
    /// pre-rendered bytes rather than a typed member because perf sits
    /// below the lab library in the dependency order.
    std::string request_json;
    bool cache_hit = false;   ///< schema v2 `cache.hit`: served from the store
    std::string store_key;    ///< schema v2 `cache.store_key` ("" = not stored)
    /// Compute backend the run exercised ("dense", "sumfact", or
    /// "dense+sumfact" for side-by-side sweeps).  Optional: omitted from the
    /// JSON when empty, so pre-backend reports stay byte-identical.
    std::string backend;
    /// Smallest polynomial order at which the sum-factorised path beats the
    /// dense batched path (bench_hotpath's dense-vs-sumfact sweep).  Optional:
    /// emitted only when >= 0; -1 means "not measured / no crossover".
    double crossover_order = -1.0;
    std::map<std::string, std::string> meta; ///< machine/net/ranks/seed/threads/...
    int steps = 0;                           ///< solver time steps covered (0 = n/a)
    std::vector<StageRow> stages;            ///< empty for kernel micro-benches
    obs::Metrics metrics;
    std::vector<Case> cases;

    [[nodiscard]] std::string to_json() const;
    void write_json(const std::string& path) const;

    /// to_json() with every host-measured time zeroed — the per-stage
    /// host_seconds column and any metric key naming host_seconds — and the
    /// cache hit bit forced to false (how a report was served is not part
    /// of what it says).  The result is bit-deterministic for deterministic
    /// runs, so the restart and repro tests compare it byte-for-byte
    /// (bench/check_determinism.py applies the same masking to report
    /// files) and the lab's RunReport store persists exactly these bytes.
    [[nodiscard]] std::string to_canonical_json() const;
};

/// Builds a RunReport for `bench`.  When `bd` is given, its per-stage
/// accounting becomes the `stages` rows and the run totals land in
/// metrics.counters ("stage.host_seconds", "ops.flops", "ops.bytes",
/// "comm.retransmits", "comm.fault_seconds", "comm.overlap_hidden_seconds").
/// When `rank` is also given, its fault and overlap logs are folded on top
/// first (pass rank = nullptr if the breakdown already absorbed them via
/// add_comm_faults/add_comm_overlap).  The result depends on nothing but
/// its arguments, so a stored report is a pure function of its request.
[[nodiscard]] RunReport report(std::string bench, const StageBreakdown* bd = nullptr,
                               const simmpi::RankReport* rank = nullptr);

} // namespace perf
