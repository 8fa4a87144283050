#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "lab/fault_profiles.hpp"
#include "lab/json.hpp"
#include "lab/scenario.hpp"

// The canonicalisation contract: identical runs serialize to identical
// bytes (and therefore identical store keys) no matter how the request was
// written, and anything outside the schema is rejected loudly.
namespace {

using lab::ParseError;
using lab::ScenarioRequest;

TEST(ScenarioCanonical, FieldOrderDoesNotChangeTheFingerprint) {
    const auto a = ScenarioRequest::parse(
        R"({"machine":"pentium","net":"myrinet","ranks":16,"solver":"fourier",
            "fidelity":"model","fault":"myrinet","seed":7,"smoke":true,
            "dof_per_rank":250000,"transpose":"pencil"})");
    const auto b = ScenarioRequest::parse(
        R"({"transpose":"pencil","dof_per_rank":250000,"smoke":true,"seed":7,
            "fault":"myrinet","fidelity":"model","solver":"fourier","ranks":16,
            "net":"myrinet","machine":"pentium"})");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.canonical_json(), b.canonical_json());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.store_key(), b.store_key());
}

TEST(ScenarioCanonical, ParseThenEmitIsANormalisingRoundTrip) {
    ScenarioRequest req;
    req.bench = "table2_nektar_f";
    req.machine = "pentium";
    req.ranks = 8;
    req.seed = 1999;
    req.dof_per_rank = 461000.0;
    const std::string canon = req.canonical_json();
    EXPECT_EQ(ScenarioRequest::parse(canon).canonical_json(), canon);
    // Keys appear in sorted order, all fields present even when defaulted.
    const char* keys[] = {"\"backend\"", "\"bench\"", "\"dof_per_rank\"", "\"fault\"",
                          "\"fidelity\"", "\"machine\"", "\"net\"", "\"ranks\"",
                          "\"schema\"", "\"seed\"", "\"smoke\"", "\"solver\"",
                          "\"steps\"", "\"transpose\""};
    std::size_t last = 0;
    for (const char* k : keys) {
        const std::size_t at = canon.find(k);
        ASSERT_NE(at, std::string::npos) << k;
        EXPECT_GT(at, last) << k << " out of sorted order";
        last = at;
    }
}

TEST(ScenarioCanonical, DistinctRequestsGetDistinctKeys) {
    ScenarioRequest a, b;
    a.ranks = 8;
    b.ranks = 16;
    EXPECT_NE(a.store_key(), b.store_key());
    b = a;
    EXPECT_EQ(a.store_key(), b.store_key());
    b.seed = 1;
    EXPECT_NE(a.store_key(), b.store_key());
}

TEST(ScenarioParse, EmptyObjectYieldsDefaults) {
    const auto req = ScenarioRequest::parse("{}");
    EXPECT_EQ(req, ScenarioRequest{});
    EXPECT_EQ(req.fidelity, "model");
}

TEST(ScenarioParse, UnknownFieldIsRejectedByName) {
    try {
        (void)ScenarioRequest::parse(R"({"ranks":4,"nprocs":4})");
        FAIL() << "unknown field accepted";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("nprocs"), std::string::npos);
    }
}

TEST(ScenarioParse, RejectsWrongTypesAndBadEnums) {
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":"eight"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":-2})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":2.5})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"solver":"spectral"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"fidelity":"exact"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"transpose":"diagonal"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"schema":99})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse("[1,2]"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":1,"ranks":2})"), ParseError);
}

TEST(ScenarioParse, OutOfRangeCountsAreRejectedNotWrapped) {
    // A count beyond its field's range must fail, not wrap (2^32 + 1 ranks
    // would alias the store entry of a 1-rank request) or reach an
    // out-of-range double -> integer cast (1e999, 1e20).
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":4294967297})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"steps":4294967296})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":1e999})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"seed":1e20})"), ParseError);
    // The bounds themselves are accepted.
    EXPECT_EQ(ScenarioRequest::parse(R"({"ranks":2147483647})").ranks, 2147483647);
    EXPECT_EQ(ScenarioRequest::parse(R"({"steps":2147483647})").steps, 2147483647);
    EXPECT_EQ(ScenarioRequest::parse(R"({"seed":9007199254740992})").seed,
              std::uint64_t{1} << 53);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":2147483648})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"seed":9007199254740994})"), ParseError);
}

std::string nested_arrays(std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
}

std::string nested_objects(std::size_t depth) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += "{\"a\":";
    s += "1";
    s += std::string(depth, '}');
    return s;
}

TEST(JsonDepth, NestingIsBoundedNotACrash) {
    EXPECT_NO_THROW((void)lab::Json::parse(nested_arrays(lab::kMaxJsonDepth)));
    EXPECT_NO_THROW((void)lab::Json::parse(nested_objects(lab::kMaxJsonDepth)));
    EXPECT_THROW((void)lab::Json::parse(nested_arrays(lab::kMaxJsonDepth + 1)), ParseError);
    EXPECT_THROW((void)lab::Json::parse(nested_objects(lab::kMaxJsonDepth + 1)), ParseError);
}

TEST(JsonDepth, DeepArrayStringIsAParseError) {
    // ~400 KB of brackets: deep enough to overflow an unbounded recursion.
    try {
        (void)lab::Json::parse(nested_arrays(200000));
        FAIL() << "deep array accepted";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
    }
}

TEST(JsonDepth, DeepObjectStringIsAParseError) {
    EXPECT_THROW((void)lab::Json::parse(nested_objects(100000)), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"machine":)" + nested_objects(100000) + "}"),
                 ParseError);
}

TEST(ScenarioSweep, SelectorsAndRankSweepMirrorTheOldCliSemantics) {
    ScenarioRequest req;
    EXPECT_TRUE(req.selects_machine("pentium-ii-450"));
    req.machine = "pentium";
    EXPECT_TRUE(req.selects_machine("pentium-ii-450"));
    EXPECT_FALSE(req.selects_machine("t3e-900"));
    EXPECT_EQ(req.rank_sweep({2, 4, 8}), (std::vector<int>{2, 4, 8}));
    req.ranks = 6;
    EXPECT_EQ(req.rank_sweep({2, 4, 8}), (std::vector<int>{6}));
}

TEST(ScenarioFaults, RosterProfilesResolveAndRequestSeedWins) {
    for (const auto& profile : lab::fault_roster())
        EXPECT_NO_THROW((void)lab::fault_by_name(profile.name)) << profile.name;
    const auto seeded = lab::fault_by_name("commodity-eth", 42);
    EXPECT_EQ(seeded.seed, 42u);
    EXPECT_THROW((void)lab::fault_by_name("token-ring"), ParseError);
}

} // namespace
