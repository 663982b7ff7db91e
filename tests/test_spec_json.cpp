// The public RunSpec/RunResult JSON codec (docs/SERVICE.md).
//
// What is pinned here, in descending order of blast radius:
//   * the canonical-string bytes (via golden SHA-256 hashes captured from
//     the pre-visitor implementation) -- every cache entry and content
//     address depends on them;
//   * to_json -> from_json -> to_json byte-identity, including non-finite
//     doubles, >2^53 counters and tokenized composites, across every cell
//     kind and across seeded pseudo-random specs;
//   * the structured error surface: stale schema versions are
//     kUnsupportedVersion, everything malformed is kInvalidSpec with a
//     message naming the offending key;
//   * RunResult::to_entry / from_json round-trips (the one result codec
//     shared by the disk cache and the wire protocol);
//   * the job codec (engine/job.hpp): render_job / parse_job round-trips,
//     and every malformed `deps` shape is kInvalidSpec, never a throw.
#include "engine/run_spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "obs/json.hpp"

namespace {

using swapgame::Status;
using swapgame::StatusCode;
using swapgame::engine::BatchNode;
using swapgame::engine::CellKind;
using swapgame::engine::RunResult;
using swapgame::engine::RunSpec;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Round-trips `spec` through the codec and checks every byte-level
/// invariant the service depends on.
void expect_round_trip(const RunSpec& spec) {
  const std::string json = spec.to_json();
  RunSpec reparsed;
  const Status status = RunSpec::from_json(json, &reparsed);
  ASSERT_TRUE(status.is_ok()) << status.to_string() << "\n" << json;
  EXPECT_EQ(reparsed.to_json(), json);
  EXPECT_EQ(reparsed.canonical_string(), spec.canonical_string());
  EXPECT_EQ(reparsed.hash(), spec.hash());
  EXPECT_EQ(reparsed.label, spec.label);
}

/// The golden spec pair whose canonical hashes are pinned below (first
/// captured from the hand-written canonical_string implementation,
/// recaptured at each schema bump since).
RunSpec golden_market_spec() {
  RunSpec b;
  b.kind = CellKind::kMarketSim;
  b.mc.evaluator = swapgame::sim::McEvaluator::kProtocol;
  b.mc.bob_strategy = swapgame::sim::McStrategy::kHonest;
  b.mc.faults.chain_a.drop_prob = 0.25;
  b.mc.faults.chain_a.censorship = {{1.0, 2.5}};
  b.mc.faults.bob_offline = {{0.5, 0.75}, {3.0, 4.0}};
  b.mc.profile.alice_cutoff = 1.5;
  b.grid_lo = 1.0;
  b.grid_hi = 3.0;
  b.grid_count = 4;
  b.mechanism = swapgame::sim::Mechanism::kCollateral;
  b.deposit = 0.7;
  b.population.types = swapgame::market::PopulationConfig::default_types();
  b.population.compaction.enabled = true;
  return b;
}

TEST(SpecJson, GoldenCanonicalHashesPinned) {
  // These hashes are content addresses: if either changes, every cached
  // result is orphaned.  Bump kRunSpecSchemaVersion (and recapture) on
  // any INTENTIONAL canonical change; never let it drift silently.
  EXPECT_EQ(
      RunSpec{}.hash(),
      "f6614f9f848187b9e08419c6e85ea1808fa248187bfc6c7e159bfed0287b0ac8");
  EXPECT_EQ(
      golden_market_spec().hash(),
      "e9f4237d94162491b6c5ce20a1c8ab9f1ef58585546d71754cc813fa826863d4");
}

TEST(SpecJson, RoundTripsEveryCellKind) {
  for (const CellKind kind :
       {CellKind::kAnalyticSr, CellKind::kSrGrid, CellKind::kSensitivity,
        CellKind::kJitterCell, CellKind::kScenario, CellKind::kMc,
        CellKind::kMarketSim}) {
    RunSpec spec;
    spec.kind = kind;
    spec.label = "kind-" + std::string(to_string(kind));
    expect_round_trip(spec);
  }
}

TEST(SpecJson, RoundTripsLoadedSpec) { expect_round_trip(golden_market_spec()); }

TEST(SpecJson, RoundTripsNonFiniteAndExtremeValues) {
  RunSpec spec;
  spec.kind = CellKind::kSrGrid;
  spec.label = "torture \"label\"\n\twith\\escapes";
  spec.grid_lo = kNan;  // the documented "use the feasible band" marker
  spec.grid_hi = kInf;
  spec.grid_offset = -kInf;
  spec.mc.params.gbm.mu = -0.0;
  spec.mc.params.alice.alpha = 5e-324;  // smallest subnormal
  spec.mc.params.bob.r = 1.7976931348623157e308;
  spec.mc.config.samples = 18446744073709551615ull;  // u64 max, > 2^53
  spec.mc.config.seed = 9007199254740993ull;         // 2^53 + 1
  spec.mc.faults.chain_b.censorship = {{kNan, kInf}};
  expect_round_trip(spec);
}

TEST(SpecJson, FuzzishRandomSpecsRoundTrip) {
  std::mt19937_64 rng(0xC0DEC);
  const auto rnd = [&rng]() -> double {
    switch (rng() % 8) {
      case 0:
        return kNan;
      case 1:
        return kInf;
      case 2:
        return -kInf;
      default:
        // A wide, sign-mixed spread with full mantissas.
        return std::ldexp(static_cast<double>(rng()) -
                              static_cast<double>(rng()),
                          static_cast<int>(rng() % 64) - 32);
    }
  };
  for (int iteration = 0; iteration < 64; ++iteration) {
    RunSpec spec;
    spec.kind = static_cast<CellKind>(rng() % 7);
    spec.label = "fuzz-" + std::to_string(iteration);
    spec.mc.params.alice.alpha = rnd();
    spec.mc.params.bob.r = rnd();
    spec.mc.params.p_t0 = rnd();
    spec.mc.params.gbm.sigma = rnd();
    spec.mc.p_star = rnd();
    spec.mc.collateral = rnd();
    spec.mc.premium = rnd();
    spec.mc.config.samples = rng();
    spec.mc.config.seed = rng();
    spec.mc.config.target_half_width = rnd();
    spec.mc.secret_seed = rng();
    spec.grid_count = static_cast<int>(rng() % 1000);
    spec.grid_offset = rnd();
    spec.grid_lo = rnd();
    spec.grid_hi = rnd();
    spec.deposit = rnd();
    const std::size_t windows = rng() % 3;
    for (std::size_t w = 0; w < windows; ++w) {
      spec.mc.faults.alice_offline.push_back({rnd(), rnd()});
      spec.mc.faults.chain_a.halts.push_back({rnd(), rnd()});
    }
    if (rng() % 2 == 0) {
      swapgame::market::TraderType type;
      type.agent.alpha = rnd();
      type.agent.r = rnd();
      type.weight = rnd();
      spec.population.types.push_back(type);
    }
    spec.population.sessions = rng();
    spec.population.seed = rng();
    expect_round_trip(spec);
  }
}

TEST(SpecJson, JsonKeysMirrorCanonicalLines) {
  // Drift guard: the JSON object must carry exactly the canonical keys,
  // in canonical order, plus the leading "v" and "label".  A field added
  // to one traversal but not the other fails here.
  const RunSpec spec = golden_market_spec();
  swapgame::obs::json::Value root;
  ASSERT_TRUE(swapgame::obs::json::parse(spec.to_json(), root).is_ok());
  std::vector<std::string> json_keys;
  for (const swapgame::obs::json::Member& member : root.as_object()) {
    json_keys.push_back(member.first);
  }
  std::vector<std::string> canonical_keys = {"v", "label"};
  const std::string canonical = spec.canonical_string();
  std::size_t pos = canonical.find('\n') + 1;  // skip the version line
  while (pos < canonical.size()) {
    const std::size_t eq = canonical.find('=', pos);
    canonical_keys.push_back(canonical.substr(pos, eq - pos));
    pos = canonical.find('\n', eq) + 1;
  }
  EXPECT_EQ(json_keys, canonical_keys);
}

TEST(SpecJson, RejectsStaleAndFutureSchemaVersions) {
  RunSpec out;
  std::string json = RunSpec{}.to_json();
  const std::string needle =
      "\"v\":" +
      std::to_string(swapgame::engine::kRunSpecSchemaVersion);
  for (const char* version : {"\"v\":6", "\"v\":8", "\"v\":999"}) {
    std::string stale = json;
    stale.replace(stale.find(needle), needle.size(), version);
    const Status status = RunSpec::from_json(stale, &out);
    EXPECT_EQ(status.code(), StatusCode::kUnsupportedVersion)
        << status.to_string();
    EXPECT_NE(status.message().find("this build speaks"), std::string::npos);
  }
}

TEST(SpecJson, RejectsUnknownMissingAndMistypedKeys) {
  RunSpec out;
  const std::string json = RunSpec{}.to_json();

  std::string unknown = json;
  unknown.insert(unknown.size() - 1, ",\"bogus\":1");
  Status status = RunSpec::from_json(unknown, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  EXPECT_NE(status.message().find("unknown key 'bogus'"), std::string::npos)
      << status.to_string();

  std::string missing = json;
  const std::size_t kind_pos = missing.find(",\"kind\":\"mc\"");
  ASSERT_NE(kind_pos, std::string::npos);
  missing.erase(kind_pos, std::string(",\"kind\":\"mc\"").size());
  status = RunSpec::from_json(missing, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  EXPECT_NE(status.message().find("missing key 'kind'"), std::string::npos)
      << status.to_string();

  std::string mistyped = json;
  mistyped.replace(mistyped.find("\"kind\":\"mc\""),
                   std::string("\"kind\":\"mc\"").size(),
                   "\"kind\":\"warp_drive\"");
  status = RunSpec::from_json(mistyped, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  EXPECT_NE(status.message().find("kind"), std::string::npos);

  status = RunSpec::from_json("this is not json", &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  status = RunSpec::from_json("[1,2,3]", &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
}

TEST(SpecJson, RejectsMalformedCompositeTokens) {
  RunSpec out;
  std::string json = RunSpec{}.to_json();
  const std::string field = "\"faults.alice_offline\":\"\"";
  ASSERT_NE(json.find(field), std::string::npos);
  for (const char* bad :
       {"\"faults.alice_offline\":\"1.0:2.0\"",      // missing terminator
        "\"faults.alice_offline\":\"1.0;\"",          // missing field
        "\"faults.alice_offline\":\"1.0:2.0:3.0;\"",  // extra field
        "\"faults.alice_offline\":\"a:b;\""}) {       // non-numeric
    std::string mutated = json;
    mutated.replace(mutated.find(field), field.size(), bad);
    const Status status = RunSpec::from_json(mutated, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << bad;
    EXPECT_NE(status.message().find("faults.alice_offline"),
              std::string::npos)
        << status.to_string();
  }
}

TEST(ResultEntry, RoundTripsTortureResult) {
  RunResult result;
  result.samples = 18446744073709551615ull;
  result.rounds = 9007199254740993ull;
  result.set("sr", 0.25);
  result.set("nan metric", kNan);
  result.set("inf\"quoted\"", kInf);
  result.set("neg", -kInf);
  result.set("tiny", 5e-324);
  result.trace = "line1\nline2\t{\"json\":\"inside\"}\\backslash";
  const std::string hash(64, 'a');

  const std::string entry = result.to_entry(hash);
  const auto parsed = RunResult::parse_entry(entry);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, hash);
  EXPECT_EQ(parsed->second.to_entry(hash), entry);
  EXPECT_EQ(parsed->second.samples, result.samples);
  EXPECT_EQ(parsed->second.rounds, result.rounds);
  EXPECT_EQ(parsed->second.trace, result.trace);
  ASSERT_EQ(parsed->second.values.size(), result.values.size());
  EXPECT_TRUE(std::isnan(parsed->second.values[1].second));
}

TEST(ResultEntry, StructuredErrorCodes) {
  const auto parse = [](const std::string& text) {
    swapgame::obs::json::Value value;
    EXPECT_TRUE(swapgame::obs::json::parse(text, value).is_ok()) << text;
    std::string hash;
    RunResult result;
    return RunResult::from_json(value, &hash, &result);
  };
  RunResult ok_result;
  ok_result.set("sr", 1.0);
  const std::string good = ok_result.to_entry(std::string(64, 'b'));

  // Stale schema: a distinct, retry-after-upgrade code.
  const std::string current =
      "{\"v\":" + std::to_string(swapgame::engine::kRunSpecSchemaVersion);
  std::string stale = good;
  stale.replace(stale.find(current), current.size(), "{\"v\":5");
  EXPECT_EQ(parse(stale).code(), StatusCode::kUnsupportedVersion);

  // Anything structurally wrong is cache corruption.
  std::string extra = good;
  extra.insert(extra.size() - 1, ",\"extra\":1");
  EXPECT_EQ(parse(extra).code(), StatusCode::kCacheCorrupt);
  EXPECT_EQ(parse(current + ",\"hash\":\"x\"}").code(),
            StatusCode::kCacheCorrupt);
  EXPECT_EQ(parse(current + ",\"hash\":\"x\",\"samples\":1,\"rounds\":0,"
                            "\"values\":[[1,2]],\"trace\":\"\"}")
                .code(),
            StatusCode::kCacheCorrupt);

  // And parse_entry (the cache-facing wrapper) maps every failure to
  // "entry absent".
  EXPECT_FALSE(RunResult::parse_entry(stale).has_value());
  EXPECT_FALSE(RunResult::parse_entry("garbage").has_value());
}

/// parse_job over one JSON text, which must itself parse.
Status parse_job_text(const std::string& text,
                      std::vector<BatchNode>* nodes) {
  swapgame::obs::json::Value root;
  const Status parsed = swapgame::obs::json::parse(text, root);
  EXPECT_TRUE(parsed.is_ok()) << text;
  return swapgame::engine::parse_job(root, nodes);
}

TEST(JobCodec, RoundTripsCellsAndDeps) {
  std::vector<BatchNode> nodes(3);
  nodes[0].spec.kind = CellKind::kAnalyticSr;
  nodes[1].spec = golden_market_spec();
  nodes[1].spec.label = "market";
  nodes[2].spec.kind = CellKind::kSrGrid;
  nodes[2].deps = {0, 1};

  const std::string body = swapgame::engine::render_job(nodes);
  EXPECT_EQ(body.find("\"cells\":["), 0u);
  EXPECT_NE(body.find(",\"deps\":[[],[],[0,1]]"), std::string::npos);
  std::vector<BatchNode> parsed;
  ASSERT_TRUE(parse_job_text("{" + body + "}", &parsed).is_ok());
  ASSERT_EQ(parsed.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(parsed[i].spec.to_json(), nodes[i].spec.to_json()) << i;
    EXPECT_EQ(parsed[i].deps, nodes[i].deps) << i;
  }
  EXPECT_EQ(swapgame::engine::render_job(parsed), body);

  // No dependency anywhere: no deps member at all.
  nodes[2].deps.clear();
  EXPECT_EQ(swapgame::engine::render_job(nodes).find("deps"),
            std::string::npos);
}

TEST(JobCodec, MalformedInputIsAStatusNeverAThrow) {
  const std::string cell = RunSpec{}.to_json();
  const std::string two_cells = "{\"cells\":[" + cell + "," + cell + "]";
  for (const std::string deps :
       {"[[-1],[]]", "[[0.5],[]]", "[[1.5],[]]", "[[1e30],[]]",
        "[[99999999999999999999],[]]", "[[\"0\"],[]]", "[[null],[]]",
        "[0,[]]", "[[],{}]", "[[]]", "[[],[],[]]", "{}", "0"}) {
    std::vector<BatchNode> nodes;
    Status status;
    ASSERT_NO_THROW(status = parse_job_text(
                        two_cells + ",\"deps\":" + deps + "}", &nodes))
        << deps;
    EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << deps;
  }

  std::vector<BatchNode> nodes;
  EXPECT_EQ(parse_job_text("[]", &nodes).code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(parse_job_text("{\"cells\":[]}", &nodes).code(),
            StatusCode::kInvalidSpec);
  EXPECT_EQ(parse_job_text("{\"deps\":[]}", &nodes).code(),
            StatusCode::kInvalidSpec);

  // A bad cell keeps the spec codec's code under a "cell <i>: " prefix.
  const std::string current =
      "\"v\":" + std::to_string(swapgame::engine::kRunSpecSchemaVersion);
  std::string stale = cell;
  stale.replace(stale.find(current), current.size(), "\"v\":4");
  const Status status =
      parse_job_text("{\"cells\":[" + cell + "," + stale + "]}", &nodes);
  EXPECT_EQ(status.code(), StatusCode::kUnsupportedVersion);
  EXPECT_EQ(status.message().rfind("cell 1: ", 0), 0u) << status.message();

  // An index past the end parses: range is the validator's check.
  ASSERT_TRUE(
      parse_job_text(two_cells + ",\"deps\":[[7],[]]}", &nodes).is_ok());
  EXPECT_EQ(nodes[0].deps, (std::vector<std::size_t>{7}));
}

}  // namespace
