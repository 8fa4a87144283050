#include "perf/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "obs/trace.hpp"

// Report and trace files either land whole or the write throws: a full disk
// must not leave a truncated report behind a successful exit.
namespace {

TEST(ReportWrite, RunReportToFullDeviceThrows) {
    const perf::RunReport rep = perf::report("write_test");
    EXPECT_THROW(rep.write_json("/dev/full"), std::runtime_error);
}

TEST(ReportWrite, RunReportRoundTripsThroughTheFile) {
    const std::string path = ::testing::TempDir() + "report_write_test.json";
    const perf::RunReport rep = perf::report("write_test");
    rep.write_json(path);
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string read;
    char buf[256];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) read.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(read, rep.to_json());
}

TEST(ReportWrite, BenchCliTraceToFullDeviceThrows) {
    // The report itself lands; the trace file is the one that fails.
    const std::string out = ::testing::TempDir() + "cli_write_test.json";
    std::string args[] = {"cli_write_test", "--trace", "--trace-out", "/dev/full", "--out", out};
    char* argv[] = {args[0].data(), args[1].data(), args[2].data(),
                    args[3].data(), args[4].data(), args[5].data()};
    const benchutil::Cli cli = benchutil::Cli::parse("cli_write_test", 6, argv);
    EXPECT_THROW(cli.finish(perf::report("cli_write_test")), std::runtime_error);
    obs::tracer().disable();
    std::remove(out.c_str());
}

} // namespace
