// Golden pin over population runs: one SHA-256 over every PopulationResult
// field (doubles by bit pattern) plus the stride-1 trace JSONL, for a fixed
// matrix of configurations each run at one and at three workers.  Any
// change to a session outcome, a settlement time, the fee-market auction,
// the price path, the pair rules or the retirement sweeps moves the
// digest.  The pin is the safety net for refactoring the session state
// machine: a rewrite that keeps it keeps every observable result.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "market/population/population_sim.hpp"
#include "obs/trace.hpp"

namespace swapgame::market {
namespace {

/// Feeds newline-terminated fields into one SHA-256.
class Golden {
 public:
  void text(std::string_view s) {
    sha_.update(s);
    sha_.update(std::string_view("\n"));
  }
  /// Doubles are hashed by bit pattern, so even a last-ulp change shows.
  void num(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    text(std::to_string(bits));
  }
  void count(std::uint64_t v) { text(std::to_string(v)); }
  [[nodiscard]] std::string hex() { return sha_.finalize().to_hex(); }

 private:
  crypto::Sha256 sha_;
};

void hash_result(Golden& g, const PopulationResult& r) {
  for (const std::uint64_t v :
       {r.arrivals, r.orders_cancelled, r.sessions, r.never_initiated,
        r.aborted_t2, r.aborted_t3, r.completed, r.starved, r.atomicity_lost}) {
    g.count(v);
  }
  const MarketStats& s = r.stats;
  for (const std::size_t v : {s.matches, s.initiated, s.completed, s.expired}) {
    g.count(v);
  }
  for (const double x :
       {s.mean_predicted_sr, s.latency_p50, s.latency_p90, s.latency_p99,
        s.lockup_token_a_hours, s.lockup_token_b_hours, r.final_price,
        r.min_price, r.max_price}) {
    g.num(x);
  }
  for (const std::uint64_t v : {r.blocks_sealed, r.txs_included, r.txs_evicted,
                                r.txs_expired, r.rebids}) {
    g.count(v);
  }
  g.num(r.fees_paid);
  for (const std::uint64_t v :
       {r.threshold_games, r.t1_evaluations, r.compactions, r.sessions_retired,
        r.accounts_retired, r.txs_retired, r.htlcs_retired, r.log_truncated,
        r.peak_live_sessions}) {
    g.count(v);
  }
  g.count(r.conserved);
  g.num(r.end_time);
}

/// small_config() of test_population.cpp.
PopulationConfig small_config(std::uint64_t sessions = 300) {
  PopulationConfig config;
  config.sessions = sessions;
  config.arrival_rate = 600.0;
  config.seed = 0xFEED5;
  return config;
}

/// Block space far below demand: evictions, re-bids and starvation.
PopulationConfig congested_config() {
  PopulationConfig config = small_config(400);
  config.arrival_rate = 2000.0;
  config.fee_a.block_capacity = 6;
  config.fee_b.block_capacity = 6;
  config.fee_a.mempool_capacity = 24;
  config.fee_b.mempool_capacity = 24;
  return config;
}

/// test_compaction.cpp's AggressiveRetirementUnderFeePressure churn: fee
/// pressure plus a sweep after every finalization at the smallest horizon.
PopulationConfig aggressive_retirement_config() {
  PopulationConfig config;
  config.sessions = 500;
  config.arrival_rate = 2500.0;
  config.seed = 0xE9A1;
  config.fee_a.block_capacity = 6;
  config.fee_b.block_capacity = 6;
  config.fee_a.mempool_capacity = 24;
  config.fee_b.mempool_capacity = 24;
  config.compaction.enabled = true;
  config.compaction.horizon = 1.0;
  config.compaction.interval = 1;
  return config;
}

void population_case(Golden& g, const std::string& label,
                     PopulationConfig config) {
  for (const std::uint64_t workers : {1u, 3u}) {
    config.workers = workers;
    PopulationSim sim(config);
    obs::TraceRecorder trace;
    sim.set_trace(&trace, /*stride=*/1);
    const PopulationResult r = sim.run();
    g.text(label + " workers=" + std::to_string(workers));
    hash_result(g, r);
    g.text(trace.to_jsonl());
  }
}

std::string golden_digest() {
  Golden g;
  population_case(g, "small", small_config());
  population_case(g, "congested", congested_config());
  population_case(g, "aggressive-retirement", aggressive_retirement_config());
  return g.hex();
}

TEST(PopulationGolden, MatrixDigestIsPinned) {
  EXPECT_EQ(golden_digest(),
            "00af4b920470ab86df8e3c8d2305d0f82bfbe2cc55d32c283f6952e41269b37f");
}

}  // namespace
}  // namespace swapgame::market
