#include "perf/report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perf {

namespace {

void esc(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void num(std::string& out, double v) {
    if (!std::isfinite(v)) { // JSON has no inf/nan; clamp rather than corrupt
        out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void kv_str(std::string& out, const char* key, const std::string& v, bool& first) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += key;
    out += "\":\"";
    esc(out, v);
    out += "\"";
}

void kv_num(std::string& out, const char* key, double v, bool& first) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += key;
    out += "\":";
    num(out, v);
}

void str_map(std::string& out, const std::map<std::string, double>& m) {
    out += "{";
    bool first = true;
    for (const auto& [k, v] : m) {
        if (!first) out += ",";
        first = false;
        out += "\"";
        esc(out, k);
        out += "\":";
        num(out, v);
    }
    out += "}";
}

} // namespace

std::string RunReport::to_json() const {
    std::string out = "{\n";
    out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",\n";
    out += "\"bench\":\"";
    esc(out, bench);
    out += "\",\n";
    if (!backend.empty()) {
        out += "\"backend\":\"";
        esc(out, backend);
        out += "\",\n";
    }
    if (crossover_order >= 0.0) {
        out += "\"crossover_order\":";
        num(out, crossover_order);
        out += ",\n";
    }
    // Schema v2: the canonical ScenarioRequest echo ({} when the report was
    // not built from one) and the store/cache provenance.
    out += "\"request\":";
    out += request_json.empty() ? "{}" : request_json;
    out += ",\n\"cache\":{\"hit\":";
    out += cache_hit ? "true" : "false";
    out += ",\"store_key\":\"";
    esc(out, store_key);
    out += "\"},\n";
    out += "\"meta\":{";
    {
        bool first = true;
        for (const auto& [k, v] : meta) kv_str(out, k.c_str(), v, first);
    }
    out += "},\n\"steps\":" + std::to_string(steps) + ",\n";
    out += "\"stages\":[";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageRow& r = stages[i];
        out += i == 0 ? "\n" : ",\n";
        out += "{";
        bool first = true;
        kv_num(out, "stage", static_cast<double>(r.stage), first);
        kv_str(out, "name", r.name, first);
        kv_str(out, "group", r.group, first);
        kv_num(out, "flops", r.flops, first);
        kv_num(out, "bytes", r.bytes, first);
        kv_num(out, "calls", static_cast<double>(r.calls), first);
        kv_num(out, "host_seconds", r.host_seconds, first);
        kv_num(out, "fault_seconds", r.fault_seconds, first);
        kv_num(out, "overlap_seconds", r.overlap_seconds, first);
        kv_num(out, "retransmits", static_cast<double>(r.retransmits), first);
        out += "}";
    }
    out += "],\n\"metrics\":{\"counters\":";
    str_map(out, metrics.counters);
    out += ",\"gauges\":";
    str_map(out, metrics.gauges);
    out += ",\"histograms\":{";
    {
        bool hfirst = true;
        for (const auto& [name, h] : metrics.histograms) {
            if (!hfirst) out += ",";
            hfirst = false;
            out += "\"";
            esc(out, name);
            out += "\":{";
            bool first = true;
            kv_num(out, "count", static_cast<double>(h.count), first);
            kv_num(out, "sum", h.sum, first);
            kv_num(out, "min", h.count ? h.min : 0.0, first);
            kv_num(out, "max", h.count ? h.max : 0.0, first);
            out += ",\"buckets\":{";
            bool bfirst = true;
            for (const auto& [exp, n] : h.buckets) {
                if (!bfirst) out += ",";
                bfirst = false;
                out += "\"" + std::to_string(exp) + "\":" + std::to_string(n);
            }
            out += "}}";
        }
    }
    out += "}},\n\"cases\":[";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "{";
        bool first = true;
        for (const auto& [k, v] : cases[i].labels) kv_str(out, k.c_str(), v, first);
        for (const auto& [k, v] : cases[i].values) kv_num(out, k.c_str(), v, first);
        out += "}";
    }
    out += "]\n}\n";
    return out;
}

std::string RunReport::to_canonical_json() const {
    RunReport masked = *this;
    masked.cache_hit = false; // serving provenance, not run content
    for (StageRow& r : masked.stages) r.host_seconds = 0.0;
    const auto mask = [](std::map<std::string, double>& m) {
        for (auto& [k, v] : m)
            if (k.find("host_seconds") != std::string::npos) v = 0.0;
    };
    mask(masked.metrics.counters);
    mask(masked.metrics.gauges);
    return masked.to_json();
}

void RunReport::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write RunReport to " + path);
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

RunReport report(std::string bench, const StageBreakdown* bd, const simmpi::RankReport* rank) {
    RunReport rep;
    rep.bench = std::move(bench);

    if (bd != nullptr) {
        StageBreakdown folded = *bd;
        if (rank != nullptr) {
            for (const auto& [stage, fs] : rank->fault_log)
                folded.add_comm_faults(stage >= 0 ? static_cast<std::size_t>(stage) : 0,
                                       fs.retransmits, fs.extra_seconds);
            for (const auto& [stage, hidden] : rank->overlap_log)
                folded.add_comm_overlap(stage >= 0 ? static_cast<std::size_t>(stage) : 0, hidden);
        }
        rep.steps = folded.steps;
        double flops = 0.0, bytes = 0.0, host = 0.0, fault = 0.0, overlap = 0.0;
        std::uint64_t retrans = 0;
        for (std::size_t s = 0; s <= kNumStages; ++s) {
            StageRow row;
            row.stage = s;
            row.name = s == 0 ? "outside stages" : stage_short_name(s);
            row.group = s == 0 ? "" : stage_group_label(stage_group(s));
            row.flops = static_cast<double>(folded.counts[s].flops);
            row.bytes = static_cast<double>(folded.counts[s].bytes());
            row.calls = folded.counts[s].calls;
            row.host_seconds = folded.host_seconds[s];
            row.fault_seconds = folded.fault_seconds[s];
            row.overlap_seconds = folded.overlap_seconds[s];
            row.retransmits = folded.retransmits[s];
            flops += row.flops;
            bytes += row.bytes;
            host += row.host_seconds;
            fault += row.fault_seconds;
            overlap += row.overlap_seconds;
            retrans += row.retransmits;
            const bool empty = row.calls == 0 && row.flops == 0.0 && row.host_seconds == 0.0 &&
                               row.fault_seconds == 0.0 && row.overlap_seconds == 0.0 &&
                               row.retransmits == 0;
            if (s >= 1 || !empty) rep.stages.push_back(std::move(row));
        }
        rep.metrics.counters["ops.flops"] += flops;
        rep.metrics.counters["ops.bytes"] += bytes;
        rep.metrics.counters["stage.host_seconds"] += host;
        rep.metrics.counters["comm.retransmits"] += static_cast<double>(retrans);
        rep.metrics.counters["comm.fault_seconds"] += fault;
        rep.metrics.counters["comm.overlap_hidden_seconds"] += overlap;
    }
    return rep;
}

} // namespace perf
