// Golden pin over the Monte-Carlo engines: one SHA-256 over the bit patterns
// of sim::McRunner results and one engine jitter cell.  The matrix covers
// plain model-MC (adaptive, and a fixed budget of more than 1000 chunks, so
// late chunk streams are reached), antithetic + control-variate model-MC, a
// collateral cell, protocol-MC (adaptive and fixed, rational strategies), a
// faulted protocol cell with re-broadcasts, and an evaluate_cell jitter
// cell, each at threads 1 and 4.  A change to a chunk's RNG stream, to one
// lane of the SIMD kernels, to the adaptive stopping rounds or to a protocol
// sample's outcome moves the digest, so a speed-up of the sampling paths
// that keeps the pin keeps every Monte-Carlo output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "engine/run_spec.hpp"
#include "model/params.hpp"
#include "sim/mc_runner.hpp"

namespace swapgame::sim {
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
  void counter(const math::BinomialCounter& c) {
    count(c.successes());
    count(c.trials());
  }
  void stats(const math::RunningStats& s) {
    count(s.count());
    num(s.mean());
    num(s.variance());
    num(s.min());
    num(s.max());
  }
  [[nodiscard]] std::string hex() { return sha_.finalize().to_hex(); }

 private:
  crypto::Sha256 sha_;
};

void hash_estimate(Golden& g, const McEstimate& e) {
  g.counter(e.success);
  g.counter(e.initiated);
  g.stats(e.alice_utility);
  g.stats(e.bob_utility);
  for (const auto& [outcome, n] : e.outcomes) {
    g.text(proto::to_string(outcome));
    g.count(n);
  }
  g.count(e.conservation_failures);
  g.count(e.invariant_failures);
  g.count(e.dropped_txs);
  g.count(e.rebroadcasts);
}

void hash_run(Golden& g, const std::string& label, const McRunSpec& spec) {
  const McRunResult r = McRunner::run(spec);
  g.text(label + " threads=" + std::to_string(spec.config.threads));
  hash_estimate(g, r.estimate);
  g.num(r.sr);
  g.num(r.half_width);
  g.count(r.samples);
  g.count(r.rounds);
  const math::ControlVariateAccumulator& acc = r.vr.acc;
  g.count(acc.count());
  g.num(acc.mean_y());
  g.num(acc.mean_x());
  g.num(acc.variance_y());
  g.num(acc.beta());
  g.num(r.vr.control_mean);
  g.count(r.vr.samples);
  g.count(r.vr.rounds);
}

McRunSpec model_spec(unsigned threads) {
  McRunSpec spec;
  spec.evaluator = McEvaluator::kModel;
  spec.params = model::SwapParams::table3_defaults();
  spec.p_star = 2.0;
  spec.config.threads = threads;
  return spec;
}

McRunSpec protocol_spec(unsigned threads) {
  McRunSpec spec = model_spec(threads);
  spec.evaluator = McEvaluator::kProtocol;
  return spec;
}

std::string golden_digest() {
  Golden g;
  for (const unsigned threads : {1u, 4u}) {
    // Plain model-MC to the accuracy sweep's CI target (~300 chunks).
    McRunSpec plain = model_spec(threads);
    plain.config.samples = std::size_t{1} << 28;
    plain.config.seed = 0x6011;
    plain.config.target_half_width = 1.5e-3;
    plain.config.ci_confidence = 0.999999;
    hash_run(g, "model adaptive", plain);

    // Fixed budget of 1001 chunks, the last one ragged.
    McRunSpec fixed = model_spec(threads);
    fixed.p_star = 1.6;
    fixed.config.samples = 1000 * 8192 + 4097;
    fixed.config.seed = 0x6012;
    hash_run(g, "model fixed", fixed);

    // Antithetic pairs + control variate, adaptive.
    McRunSpec vr = model_spec(threads);
    vr.config.samples = std::size_t{1} << 26;
    vr.config.seed = 0x6013;
    vr.config.target_half_width = 7.5e-4;
    vr.config.ci_confidence = 0.999999;
    vr.config.antithetic = true;
    vr.config.control_variate = true;
    hash_run(g, "model antithetic+cv", vr);

    // Collateralized game, antithetic with an odd budget (a ragged pair).
    McRunSpec collateral = model_spec(threads);
    collateral.collateral = 0.5;
    collateral.config.samples = 40 * 8192 + 3;
    collateral.config.seed = 0x6014;
    collateral.config.antithetic = true;
    hash_run(g, "model collateral", collateral);

    // Protocol-MC with rational strategies: Wilson-adaptive and fixed.
    McRunSpec proto_adaptive = protocol_spec(threads);
    proto_adaptive.config.samples = std::size_t{1} << 20;
    proto_adaptive.config.seed = 0x6015;
    proto_adaptive.config.target_half_width = 0.015;
    hash_run(g, "protocol adaptive", proto_adaptive);

    McRunSpec proto_fixed = protocol_spec(threads);
    proto_fixed.p_star = 1.7;
    proto_fixed.config.samples = 7 * 256 + 208;
    proto_fixed.config.seed = 0x6016;
    hash_run(g, "protocol fixed", proto_fixed);

    // Honest parties on lossy, delayed, censored chains: re-broadcasts,
    // fault aborts and balance-based valuation.
    McRunSpec faulted = protocol_spec(threads);
    faulted.strategy = McStrategy::kHonest;
    faulted.expiry_margin = 6.0;
    faulted.faults.seed = 0x6017;
    faulted.faults.chain_a.drop_prob = 0.3;
    faulted.faults.chain_b.drop_prob = 0.2;
    faulted.faults.chain_b.extra_delay_prob = 0.4;
    faulted.faults.chain_b.extra_delay_max = 2.0;
    faulted.faults.bob_offline.push_back({7.5, 8.5});
    faulted.config.samples = 3 * 256 + 100;
    faulted.config.seed = 0x6018;
    hash_run(g, "protocol faulted", faulted);

    // The engine's jitter cell (evaluate_cell runs it at threads 1 whatever
    // the spec says; both passes must agree).
    engine::RunSpec jitter;
    jitter.kind = engine::CellKind::kJitterCell;
    jitter.mc = protocol_spec(threads);
    jitter.mc.strategy = McStrategy::kHonest;
    jitter.mc.confirmation_jitter_a = 0.5;
    jitter.mc.confirmation_jitter_b = 1.5;
    jitter.mc.expiry_margin = 1.0;
    jitter.mc.latency_seed = 0x6019;
    jitter.mc.config.samples = 600;
    jitter.mc.config.min_samples = 100;
    jitter.mc.config.target_half_width = 0.03;
    const engine::RunResult r = engine::evaluate_cell(jitter);
    g.text("jitter cell threads=" + std::to_string(threads));
    g.count(r.complete);
    g.count(r.samples);
    g.count(r.rounds);
    for (const auto& [name, value] : r.values) {
      g.text(name);
      g.num(value);
    }
  }
  return g.hex();
}

TEST(McGolden, MatrixDigestIsPinned) {
  EXPECT_EQ(golden_digest(),
            "a938022c4455c2794be0907803e0798ae3136a18c56123346f15e647c39e43ab");
}

}  // namespace
}  // namespace swapgame::sim
