/// perfbench_driver: runs one benchmark workload and prints its raw samples
/// as one JSON object on stdout (run.py turns them into metrics).
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                    [--setups <k>]
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "compute/backend.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        out += num(v[i]);
    }
    return out + "]";
}

std::string object(const std::map<std::string, double>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
        if (!first) out += ',';
        out += str(k);
        out += ':';
        out += num(v);
        first = false;
    }
    return out + "}";
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int usage() {
    std::fprintf(stderr, "usage: perfbench_driver --workload serial_bluff|fourier_wake|ale_flap|"
                         "lab_mix --seed N --seconds S --trace 0|1 [--setups K]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        try {
            if (key == "--workload") o.workload = val;
            else if (key == "--seed") o.seed = std::stoull(val);
            else if (key == "--seconds") o.seconds = std::stod(val);
            else if (key == "--trace") o.trace = val == "1";
            else if (key == "--setups") o.setups = std::stoi(val);
            else return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    if (argc % 2 == 0 || o.setups < 1 || !(o.seconds >= 0.0)) return usage();

    Result r;
    try {
        if (o.workload == "serial_bluff") r = run_serial_bluff(o);
        else if (o.workload == "fourier_wake") r = run_fourier_wake(o);
        else if (o.workload == "ale_flap") r = run_ale_flap(o);
        else if (o.workload == "lab_mix") r = run_lab_mix(o);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s failed: %s\n", o.workload.c_str(), e.what());
        return 1;
    }

    std::ostringstream out;
    out << "{\"workload\":" << str(o.workload) << ",\"seed\":" << o.seed
        << ",\"trace\":" << (o.trace ? 1 : 0)
        << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"compiler\":" << str(PERFBENCH_COMPILER)
        << ",\"build_type\":" << str(PERFBENCH_BUILD_TYPE)
        << ",\"pool_threads\":" << r.pool_threads
        << ",\"backend\":" << str(compute::to_string(compute::default_backend())) << "}"
        << ",\"setup_s\":" << array(r.setup_s) << ",\"wall_s\":" << num(r.wall_s)
        << ",\"op_ms\":" << array(r.op_ms)
        << ",\"op_count\":" << (r.op_count ? r.op_count : r.op_ms.size())
        << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"attempted\":" << r.attempted
        << ",\"failed\":" << r.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) out << (i ? "," : "") << str(r.failures[i]);
    out << "],\"check_step\":" << r.check_step << ",\"observables\":{";
    bool first = true;
    for (const auto& [k, v] : r.observables) {
        out << (first ? "" : ",") << str(k) << ":" << array(v);
        first = false;
    }
    out << "},\"layers\":" << object(r.layers) << ",\"extra\":" << object(r.extra)
        << ",\"shape\":" << object(r.shape) << ",\"computed\":[";
    for (std::size_t i = 0; i < r.computed.size(); ++i) {
        const Computed& c = r.computed[i];
        out << (i ? "," : "") << "{\"probe\":" << str(c.probe) << ",\"flops\":" << num(c.flops)
            << ",\"bytes\":" << num(c.bytes) << ",\"per\":" << num(c.calls) << "}";
    }
    out << "]}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}
