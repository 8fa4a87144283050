#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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
    const char* keys[] = {"\"bench\"", "\"dof_per_rank\"", "\"fault\"", "\"fidelity\"",
                          "\"machine\"", "\"net\"", "\"ranks\"", "\"schema\"",
                          "\"seed\"", "\"smoke\"", "\"solver\"", "\"steps\"",
                          "\"transpose\""};
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

TEST(ScenarioParse, BackendIsNotARequestField) {
    // The expansion order picks the compute engine; a request cannot.
    try {
        (void)ScenarioRequest::parse(R"({"backend":"dense"})");
        FAIL() << "backend field accepted";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown ScenarioRequest field \"backend\""),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(ScenarioRequest{}.canonical_json().find("backend"), std::string::npos);
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

TEST(ScenarioParse, MeasuredRequestsHaveAWorkBudget) {
    // Measured fidelity builds a solver per simulated rank and runs `steps`
    // of it: both are capped.  Model fidelity is analytic and is not.
    const auto measured = [](const std::string& fields) {
        return ScenarioRequest::parse(R"({"fidelity":"measured","solver":"fourier",)" + fields +
                                      "}");
    };
    const ScenarioRequest at_budget = measured(R"("ranks":64,"steps":100)");
    EXPECT_EQ(at_budget.ranks, ScenarioRequest::kMaxMeasuredRanks);
    EXPECT_EQ(at_budget.steps, ScenarioRequest::kMaxMeasuredSteps);
    EXPECT_THROW((void)measured(R"("ranks":65)"), ParseError);
    EXPECT_THROW((void)measured(R"("steps":101)"), ParseError);
    EXPECT_THROW((void)measured(R"("ranks":2147483647)"), ParseError);
    EXPECT_THROW((void)measured(R"("steps":2147483647)"), ParseError);
    const ScenarioRequest model = ScenarioRequest::parse(R"({"ranks":4096,"steps":100000})");
    EXPECT_EQ(model.ranks, 4096);
    EXPECT_EQ(model.steps, 100000);
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

/// A few canonical requests covering every field, escapes and both bools.
std::vector<std::string> fuzz_seeds() {
    ScenarioRequest table2;
    table2.bench = "table2_nektar_f";
    table2.machine = "pentium";
    table2.net = "myrinet";
    table2.ranks = 8;
    table2.seed = 1999;
    table2.dof_per_rank = 461000.0;
    ScenarioRequest measured;
    measured.bench = "tab\there \"quoted\" \x01";
    measured.solver = "fourier";
    measured.fidelity = "measured";
    measured.fault = "commodity-eth";
    measured.transpose = "pencil";
    measured.smoke = true;
    measured.steps = 3;
    measured.ranks = 4;
    measured.dof_per_rank = 0.125;
    return {ScenarioRequest{}.canonical_json(), table2.canonical_json(),
            measured.canonical_json()};
}

/// Parses `text`: a ParseError is a clean rejection; an accepted request
/// must be a fixed point of canonical_json() -> parse().  Any other
/// exception type escapes and fails the calling test.
void expect_parse_or_reject(const std::string& text) {
    ScenarioRequest req;
    try {
        req = ScenarioRequest::parse(text);
    } catch (const ParseError&) {
        return;
    }
    const std::string canon = req.canonical_json();
    const ScenarioRequest again = ScenarioRequest::parse(canon);
    EXPECT_EQ(again, req) << text;
    EXPECT_EQ(again.canonical_json(), canon) << text;
}

TEST(ScenarioFuzz, EveryTruncationIsRejected) {
    for (const std::string& seed : fuzz_seeds()) {
        for (std::size_t n = 0; n < seed.size(); ++n) {
            SCOPED_TRACE(seed.substr(0, n));
            EXPECT_THROW((void)ScenarioRequest::parse(seed.substr(0, n)), ParseError);
        }
        expect_parse_or_reject(seed);
    }
}

TEST(ScenarioFuzz, EverySingleByteSubstitutionParsesCanonicallyOrIsRejected) {
    for (const std::string& seed : fuzz_seeds()) {
        std::string text = seed;
        for (std::size_t i = 0; i < text.size(); ++i) {
            for (int b = 0; b < 256; ++b) {
                if (static_cast<char>(b) == seed[i]) continue;
                text[i] = static_cast<char>(b);
                expect_parse_or_reject(text);
            }
            text[i] = seed[i];
            if (HasFailure()) return; // one diagnosis, not thousands
        }
    }
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
