// Tests for the batch run-plan engine (src/engine): canonical hashing,
// the cache-entry round trip, both cache tiers, DAG scheduling, and the
// two contracts the migrated benches rely on -- bit-identical results at
// any thread count (warm or cold cache) and kill-and-resume via the disk
// tier (docs/ENGINE.md).
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/batch_engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/run_spec.hpp"
#include "model/params.hpp"

namespace swapgame::engine {
namespace {

/// A cheap but non-trivial protocol MC cell; varying (p_star, seed) makes
/// distinct cells, keeping everything else canonical-equal.
RunSpec mc_spec(double p_star, std::uint64_t seed,
                std::size_t samples = 48) {
  RunSpec spec;
  spec.kind = CellKind::kMc;
  spec.label = "test-cell";
  spec.mc.evaluator = sim::McEvaluator::kProtocol;
  spec.mc.params = model::SwapParams::table3_defaults();
  spec.mc.p_star = p_star;
  spec.mc.config.samples = samples;
  spec.mc.config.seed = seed;
  return spec;
}

/// Serialized view of a whole batch -- the bit-exact comparison key (NaN
/// and signed zero compare by their canonical rendering, not by ==).
std::string serialize(const std::vector<RunResult>& results) {
  std::string out;
  for (const RunResult& r : results) out += r.to_entry("x") + "\n";
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f << content;
}

/// Fixture owning a throwaway directory for the disk-cache tests.
class EngineFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/swapgame_engine_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST(RunSpecCanonical, VersionLineLeadsTheCanonicalString) {
  const std::string canon = mc_spec(2.0, 1).canonical_string();
  const std::string expected =
      "swapgame.runspec.v" + std::to_string(kRunSpecSchemaVersion) + "\n";
  EXPECT_EQ(canon.substr(0, expected.size()), expected);
}

TEST(RunSpecCanonical, PresentationAndExecutionFieldsDoNotSplitCells) {
  const RunSpec base = mc_spec(2.0, 7);
  RunSpec labeled = base;
  labeled.label = "completely different label";
  RunSpec threaded = base;
  threaded.mc.config.threads = 8;
  EXPECT_EQ(base.hash(), labeled.hash());
  EXPECT_EQ(base.hash(), threaded.hash());
}

TEST(RunSpecCanonical, EverySemanticFieldChangesTheHash) {
  const RunSpec base = mc_spec(2.0, 7);
  std::vector<RunSpec> variants;
  variants.push_back(base);
  variants.back().mc.p_star = 2.5;
  variants.push_back(base);
  variants.back().mc.config.seed = 8;
  variants.push_back(base);
  variants.back().mc.config.samples = 49;
  variants.push_back(base);
  variants.back().kind = CellKind::kAnalyticSr;
  variants.push_back(base);
  variants.back().mc.strategy = sim::McStrategy::kHonest;
  variants.push_back(base);
  variants.back().mc.config.trace_stride = 7;  // selects the stored trace
  variants.push_back(base);
  variants.back().mc.faults.chain_a.drop_prob = 0.1;
  variants.push_back(base);
  variants.back().mc.faults.bob_offline.push_back({1.0, 2.0});
  variants.push_back(base);
  variants.back().mechanism = sim::Mechanism::kPremium;
  variants.push_back(base);
  variants.back().grid_count = 40;
  for (const RunSpec& v : variants) EXPECT_NE(base.hash(), v.hash());
}

TEST(RunResultEntry, RoundTripsDoublesBitExactly) {
  RunResult result;
  result.samples = 12345;
  result.rounds = 7;
  result.set("third", 1.0 / 3.0);
  result.set("tenth", 0.1);
  result.set("tiny", std::numeric_limits<double>::denorm_min());
  result.set("huge", std::numeric_limits<double>::max());
  result.set("nan", std::numeric_limits<double>::quiet_NaN());
  result.set("inf", std::numeric_limits<double>::infinity());
  result.set("ninf", -std::numeric_limits<double>::infinity());
  result.trace = "{\"a\":1}\n{\"quote\":\"\\\"}\nline3";

  const std::string line = result.to_entry("deadbeef");
  const auto parsed = RunResult::parse_entry(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "deadbeef");
  const RunResult& back = parsed->second;
  EXPECT_EQ(back.samples, result.samples);
  EXPECT_EQ(back.rounds, result.rounds);
  EXPECT_EQ(back.trace, result.trace);
  EXPECT_TRUE(std::isnan(back.at("nan")));
  EXPECT_EQ(back.at("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.at("ninf"), -std::numeric_limits<double>::infinity());
  // Re-serializing reproduces the original line byte for byte -- the
  // property the %.17g / non-finite-marker rendering exists to provide.
  EXPECT_EQ(back.to_entry("deadbeef"), line);
}

TEST(RunResultEntry, RejectsMalformedAndStaleLines) {
  EXPECT_FALSE(RunResult::parse_entry("").has_value());
  EXPECT_FALSE(RunResult::parse_entry("not json at all").has_value());

  RunResult result;
  result.set("sr", 0.5);
  const std::string line = result.to_entry("abc");
  // Truncation anywhere inside the line must fail cleanly, not misparse.
  EXPECT_FALSE(
      RunResult::parse_entry(line.substr(0, line.size() - 1)).has_value());
  // A different schema version is rejected even when otherwise well
  // formed: stale entries become misses, never wrong results.
  const std::string current = "{\"v\":" + std::to_string(kRunSpecSchemaVersion);
  const std::string stale =
      "{\"v\":" + std::to_string(kRunSpecSchemaVersion + 1) +
      line.substr(current.size());
  EXPECT_FALSE(RunResult::parse_entry(stale).has_value());
}

TEST(ResultCacheLru, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, "");
  RunResult r;
  r.set("sr", 1.0);
  cache.put("a", r);
  cache.put("b", r);
  ASSERT_TRUE(cache.get("a").has_value());  // a is now most recent
  cache.put("c", r);                        // capacity 2: evicts b
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.memory_hits(), 3u);
}

TEST(ResultCacheLru, ZeroCapacityDisablesTheMemoryTier) {
  ResultCache cache(0, "");
  RunResult r;
  r.set("sr", 1.0);
  cache.put("a", r);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.memory_hits(), 0u);
}

TEST_F(EngineFiles, DiskTierPersistsAcrossInstances) {
  RunResult r;
  r.samples = 99;
  r.set("sr", 0.25);
  r.trace = "{\"kind\":\"outcome\"}";
  {
    ResultCache writer(4, dir_);
    writer.put("cafe01", r);
  }
  ResultCache reader(4, dir_);
  const auto hit = reader.get("cafe01");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->to_entry("cafe01"), r.to_entry("cafe01"));
  EXPECT_EQ(reader.disk_hits(), 1u);
  // The disk hit was promoted into the LRU: the second lookup is a
  // memory hit.
  ASSERT_TRUE(reader.get("cafe01").has_value());
  EXPECT_EQ(reader.memory_hits(), 1u);
  EXPECT_EQ(reader.disk_hits(), 1u);
}

TEST_F(EngineFiles, DiskTierRejectsStaleMismatchedAndCorruptEntries) {
  RunResult r;
  r.set("sr", 0.5);
  // (a) schema-version mismatch, (b) entry whose embedded hash does not
  // match its filename (a moved/renamed file), (c) plain corruption.
  const std::string good = r.to_entry("aaaa");
  const std::string current = "{\"v\":" + std::to_string(kRunSpecSchemaVersion);
  write_file(dir_ + "/stale.json",
             "{\"v\":" + std::to_string(kRunSpecSchemaVersion + 1) +
                 good.substr(current.size()));
  write_file(dir_ + "/moved.json", good);
  write_file(dir_ + "/corrupt.json", "{\"v\":");
  ResultCache cache(4, dir_);
  EXPECT_FALSE(cache.get("stale").has_value());
  EXPECT_FALSE(cache.get("moved").has_value());
  EXPECT_FALSE(cache.get("corrupt").has_value());
  EXPECT_EQ(cache.disk_rejected(), 3u);
  EXPECT_EQ(cache.disk_hits(), 0u);
}

TEST_F(EngineFiles, FailedPutLeavesNoTempFile) {
  // The final <hash>.json name is taken by a directory, so the rename
  // that publishes the entry fails: the temp file must not stay behind,
  // and the blocked name reads as a rejected entry, never as a hit.
  namespace fs = std::filesystem;
  ASSERT_TRUE(fs::create_directory(dir_ + "/blocked.json"));
  ResultCache cache(0, dir_);  // no memory tier: get() goes to disk
  RunResult r;
  r.set("sr", 0.5);
  cache.put("blocked", r);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  EXPECT_FALSE(cache.get("blocked").has_value());
  EXPECT_EQ(cache.disk_rejected(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);
}

TEST(BatchEngineDag, RejectsCyclesAndOutOfRangeDeps) {
  EngineConfig config;
  config.threads = 1;
  BatchEngine engine(config);
  std::vector<BatchNode> cycle(2);
  cycle[0].spec = mc_spec(2.0, 1);
  cycle[1].spec = mc_spec(2.5, 2);
  cycle[0].deps = {1};
  cycle[1].deps = {0};
  EXPECT_THROW((void)engine.run_batch(cycle), std::invalid_argument);

  std::vector<BatchNode> dangling(1);
  dangling[0].spec = mc_spec(2.0, 1);
  dangling[0].deps = {5};
  EXPECT_THROW((void)engine.run_batch(dangling), std::invalid_argument);
}

TEST(BatchEngineDag, DedupesIdenticalSpecsWithinABatch) {
  EngineConfig config;
  config.threads = 1;
  BatchEngine engine(config);
  RunSpec duplicate = mc_spec(2.0, 3);
  duplicate.label = "same cell, different label";  // not a semantic split
  const std::vector<RunSpec> specs{mc_spec(2.0, 3), duplicate,
                                   mc_spec(2.5, 4)};
  const std::vector<RunResult> results = engine.run_batch(specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].to_entry("x"), results[1].to_entry("x"));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cells_total, 3u);
  EXPECT_EQ(stats.cells_run, 2u);  // the duplicate was served, not re-run
  EXPECT_EQ(stats.memory_hits, 1u);
}

TEST(BatchEngineDeterminism, SerialAndPooledBatchesBitIdentical) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(mc_spec(1.8 + 0.1 * i, 100 + i));
  }
  specs[2].mc.config.trace_stride = 7;  // exercise the stored-trace path

  EngineConfig serial;
  serial.threads = 1;
  BatchEngine one(serial);
  EngineConfig pooled;
  pooled.threads = 8;
  BatchEngine eight(pooled);
  const auto a = one.run_batch(specs);
  const auto b = eight.run_batch(specs);
  EXPECT_EQ(serialize(a), serialize(b));
  EXPECT_FALSE(a[2].trace.empty());
}

TEST(BatchEngineDeterminism, ManySmallPooledBatchesOutliveTheirCells) {
  // Regression for a lifetime race: the last cell of a pooled batch read
  // the batch state after run_batch could already have returned and
  // destroyed it.  Many tiny batches of independent cells -- after the
  // first, all memory-cache hits that finish in microseconds -- make the
  // last completion race the return as often as possible (run under TSan
  // in CI).
  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(mc_spec(1.8 + 0.1 * i, 700 + i, 8));
  }
  EngineConfig serial;
  serial.threads = 1;
  const std::string expected = serialize(BatchEngine(serial).run_batch(specs));

  EngineConfig pooled;
  pooled.threads = 4;
  BatchEngine engine(pooled);
  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(serialize(engine.run_batch(specs)), expected) << round;
  }
  EXPECT_EQ(engine.stats().cells_run, specs.size());
}

TEST_F(EngineFiles, KillAndResumeIsBitIdentical) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 5; ++i) {
    specs.push_back(mc_spec(1.9 + 0.1 * i, 500 + i));
  }

  EngineConfig plain;
  plain.threads = 1;
  BatchEngine baseline(plain);
  const auto expected = baseline.run_batch(specs);

  // "Kill" after two completed cells: the disk tier publishes each entry
  // as its cell completes, so a run of the first two specs leaves exactly
  // what a batch killed after two completions would.
  namespace fs = std::filesystem;
  const std::string cache_dir = dir_ + "/cache";
  const std::string snapshot = dir_ + "/snapshot";
  EngineConfig interrupted_config;
  interrupted_config.threads = 1;
  interrupted_config.cache_dir = cache_dir;
  {
    BatchEngine interrupted(interrupted_config);
    (void)interrupted.run_batch(
        std::vector<RunSpec>(specs.begin(), specs.begin() + 2));
    EXPECT_EQ(interrupted.stats().cells_run, 2u);
  }
  fs::copy(cache_dir, snapshot);

  // Rerunning the whole batch on a fresh engine over that directory
  // re-runs only the remainder, at either thread count, and the assembled
  // batch is bit-identical to the uninterrupted baseline.  (Each rerun
  // completes the cache, so restore the 2-entry snapshot between runs.)
  for (const unsigned threads : {1u, 8u}) {
    fs::remove_all(cache_dir);
    fs::copy(snapshot, cache_dir);
    EngineConfig resumed_config;
    resumed_config.threads = threads;
    resumed_config.cache_dir = cache_dir;
    BatchEngine resumed(resumed_config);
    const auto results = resumed.run_batch(specs);
    EXPECT_EQ(serialize(results), serialize(expected)) << threads;
    EXPECT_EQ(resumed.stats().disk_hits, 2u) << threads;
    EXPECT_EQ(resumed.stats().cells_run, 3u) << threads;
  }
}

TEST_F(EngineFiles, WarmCacheServesTheWholeBatchWithoutSampling) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(mc_spec(1.9 + 0.1 * i, 900 + i));
  }
  specs[1].mc.config.trace_stride = 5;  // traces must replay from cache

  EngineConfig config;
  config.threads = 1;
  config.cache_dir = dir_;
  BatchEngine cold(config);
  const auto first = cold.run_batch(specs);
  EXPECT_EQ(cold.stats().cells_run, 4u);
  EXPECT_GT(cold.stats().mc_samples_run, 0u);

  // A fresh engine on the same cache directory (fresh process, empty LRU)
  // answers entirely from disk: zero cells evaluated, zero MC samples
  // drawn, byte-identical results including the stored trace.
  BatchEngine warm(config);
  const auto second = warm.run_batch(specs);
  EXPECT_EQ(serialize(second), serialize(first));
  const EngineStats stats = warm.stats();
  EXPECT_EQ(stats.cells_run, 0u);
  EXPECT_EQ(stats.mc_samples_run, 0u);
  EXPECT_EQ(stats.disk_hits, 4u);
  EXPECT_EQ(stats.mc_samples_cached, cold.stats().mc_samples_run);
  EXPECT_FALSE(second[1].trace.empty());
  EXPECT_EQ(second[1].trace, first[1].trace);
}

}  // namespace
}  // namespace swapgame::engine
