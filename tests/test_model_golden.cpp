// Golden pin over the game-theoretic model: one SHA-256 over the bit
// patterns of every threshold, utility and success rate of the five games
// (basic, collateral, premium, extended, commitment), the warm-chained
// sweepers, the Bayesian premium game, the P* viability scans, the
// negotiation rules, and the strategy evaluator's best responses and its
// values and success rate of three profiles (honest, the equilibrium, and
// one whose last region piece is unbounded).  A change that moves any of
// them by one ulp moves the digest, so a refactor of the root-scanning
// solvers or the region integrals that keeps the pin keeps every model
// output.
//
// Beyond Table III defaults the matrix holds a mu > r point (Bob's t2 region
// is a single piece that starts at 0), a mu == r_B point (Bob's t2 gap is
// identically zero near 0, so the strict-preference margin decides) and a
// sweep near Bob's participation edge (narrow bands, where the warm-start
// verification grid decides between a warm and a cold solve).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "math/interval.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/commitment_game.hpp"
#include "model/extended_game.hpp"
#include "model/negotiation.hpp"
#include "model/premium_game.hpp"
#include "model/premium_uncertainty.hpp"
#include "model/solver_cache.hpp"
#include "model/strategy_value.hpp"

namespace swapgame::model {
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
  void count(long long v) { text(std::to_string(v)); }
  void nums(const std::vector<double>& xs) {
    count(static_cast<long long>(xs.size()));
    for (const double x : xs) num(x);
  }
  void set(const math::IntervalSet& s) {
    count(static_cast<long long>(s.size()));
    for (const math::Interval& iv : s.intervals()) {
      num(iv.lo);
      num(iv.hi);
    }
  }
  void band(const FeasibleBand& b) {
    count(b.viable);
    num(b.lo);
    num(b.hi);
  }
  [[nodiscard]] std::string hex() { return sha_.finalize().to_hex(); }

 private:
  crypto::Sha256 sha_;
};

SwapParams defaults() { return SwapParams::table3_defaults(); }

/// mu above both discount rates: Bob's refund branch outgrows his
/// discounting and his t2 region starts inside at 0 (one root).
SwapParams drift_above_r() {
  SwapParams p = defaults();
  p.gbm.mu = 0.012;
  return p;
}

/// mu == r_B: Bob's t2 gap is identically zero near 0 and only the
/// strict-preference margin keeps the region from starting there.
SwapParams drift_at_r_bob() {
  SwapParams p = defaults();
  p.gbm.mu = p.bob.r;
  return p;
}

const std::vector<double> kRates = {1.2, 1.6, 2.0, 2.4, 2.9};

void basic_case(Golden& g, const BasicGame& game) {
  g.num(game.alice_t3_cutoff());
  g.nums(game.t2_roots());
  g.set(game.bob_t2_region());
  g.num(game.alice_t1_cont());
  g.num(game.alice_t1_stop());
  g.num(game.bob_t1_cont());
  g.num(game.bob_t1_stop());
  g.num(game.success_rate());
  g.num(game.bob_t2_cont_probability());
}

void collateral_case(Golden& g, const CollateralGame& game) {
  g.num(game.alice_t3_cutoff());
  g.nums(game.basic().t2_roots());
  g.nums(game.t2_roots());
  g.set(game.bob_t2_region());
  g.num(game.alice_t1_cont());
  g.num(game.alice_t1_stop());
  g.num(game.bob_t1_cont());
  g.num(game.bob_t1_stop());
  g.num(game.success_rate());
  g.num(game.bob_t2_cont_probability());
}

void games(Golden& g, const SwapParams& params) {
  for (const double p_star : kRates) {
    g.text("basic " + std::to_string(p_star));
    basic_case(g, BasicGame(params, p_star));
    for (const double q : {0.0, 0.25, 1.0}) {
      g.text("collateral " + std::to_string(q));
      collateral_case(g, CollateralGame(params, p_star, q));
    }
    for (const double pr : {0.05, 0.3}) {
      const PremiumGame game(params, p_star, pr);
      g.text("premium " + std::to_string(pr));
      g.num(game.alice_t3_cutoff());
      g.set(game.bob_t2_region());
      g.num(game.alice_t1_cont());
      g.num(game.alice_t1_stop());
      g.num(game.bob_t1_cont());
      g.num(game.bob_t1_stop());
      g.num(game.success_rate());
    }
    ExtendedParams fees = ExtendedParams::from_basic(params);
    fees.alice = {0.01, 0.013};
    fees.bob = {0.012, 0.009};
    fees.fee_a = 0.01;
    fees.fee_b = 0.02;
    for (const ExtendedParams& ext :
         {ExtendedParams::from_basic(params), fees}) {
      const ExtendedGame game(ext, p_star);
      g.text("extended");
      g.num(game.alice_t3_cutoff());
      g.set(game.bob_t2_region());
      g.num(game.alice_t1_cont());
      g.num(game.alice_t1_stop());
      g.num(game.success_rate());
    }
    const CommitmentGame commit(params, p_star);
    g.text("commitment");
    g.num(commit.bob_t2_threshold());
    g.num(commit.alice_t1_cont());
    g.num(commit.alice_t1_stop());
    g.num(commit.bob_t1_cont());
    g.num(commit.bob_t1_stop());
    g.num(commit.success_rate());
  }
}

void sweepers(Golden& g) {
  BasicGameSweeper basic(defaults());
  for (int i = 0; i <= 40; ++i) {
    g.text("basic sweeper " + std::to_string(i));
    basic_case(g, *basic.at(1.0 + 0.05 * i));
  }
  // Near Bob's participation edge his t2 band is narrow, so the warm
  // verification grid decides between keeping a warm solve and rescanning
  // cold.
  SwapParams edge = defaults();
  edge.bob.alpha = 0.02;
  BasicGameSweeper narrow(edge);
  for (int i = 0; i <= 200; ++i) {
    g.text("narrow sweeper " + std::to_string(i));
    g.nums(narrow.at(0.5 + 0.0125 * i)->t2_roots());
  }
  CollateralGameSweeper collateral(defaults());
  for (int i = 0; i <= 20; ++i) {
    g.text("collateral sweeper q " + std::to_string(i));
    collateral_case(g, *collateral.at(2.0, 0.1 * i));
  }
  for (int i = 0; i <= 20; ++i) {
    g.text("collateral sweeper p* " + std::to_string(i));
    collateral_case(g, *collateral.at(1.0 + 0.1 * i, 0.5));
  }
}

void uncertain_premium(Golden& g) {
  const AlphaPrior about_alice{{0.1, 0.3, 0.5}, {1.0, 2.0, 1.0}};
  const AlphaPrior about_bob{{0.05, 0.3}, {1.0, 1.0}};
  for (const double p_star : {1.8, 2.0, 2.2}) {
    const UncertainPremiumGame game(defaults(), about_alice, about_bob, p_star);
    g.text("uncertain " + std::to_string(p_star));
    const std::optional<math::Interval> band = game.bob_t2_band_bayes();
    g.count(band.has_value());
    if (band) {
      g.num(band->lo);
      g.num(band->hi);
    }
    g.num(game.alice_t1_cont_bayes());
    g.num(game.realized_success_rate());
    g.num(game.believed_success_rate());
  }
}

void rate_scans(Golden& g) {
  for (const SwapParams& params : {defaults(), drift_above_r()}) {
    g.text("alice_feasible_band");
    g.band(alice_feasible_band(params));
  }
  ExtendedParams fees = ExtendedParams::from_basic(defaults());
  fees.fee_a = 0.01;
  fees.fee_b = 0.02;
  for (const ExtendedParams& ext :
       {ExtendedParams::from_basic(defaults()), fees}) {
    g.text("extended_feasible_band");
    g.band(extended_feasible_band(ext));
  }
  g.text("commitment_feasible_band");
  g.band(commitment_feasible_band(defaults()));
  g.text("premium_viable_rates");
  g.set(premium_viable_rates(defaults(), 0.1));
  for (const double q : {0.1, 0.5}) {
    const CollateralViability v = collateral_viable_rates(defaults(), q);
    g.text("collateral_viable_rates " + std::to_string(q));
    g.set(v.alice);
    g.set(v.bob);
    g.set(v.both);
  }
  for (const BargainingRule rule :
       {BargainingRule::kNashBargaining, BargainingRule::kMaxSuccessRate,
        BargainingRule::kMidpoint}) {
    const NegotiationResult r = negotiate_rate(defaults(), rule);
    g.text(std::string("negotiate_rate ") + to_string(rule));
    g.count(r.agreed);
    g.num(r.p_star);
    g.num(r.alice_surplus);
    g.num(r.bob_surplus);
    g.num(r.success_rate);
    g.set(r.alice_acceptable);
    g.set(r.bob_acceptable);
    g.set(r.mutual);
  }
  const StrategyEvaluator evaluator(defaults(), 2.0);
  for (const double cutoff :
       {0.0, evaluator.alice_best_response_cutoff(), 1.5, 3.0}) {
    g.text("bob_best_response");
    g.set(evaluator.bob_best_response(cutoff));
  }
  for (const double p_star : {1.6, 2.0, 2.4}) {
    const StrategyEvaluator at(defaults(), p_star);
    // A region whose last piece is unbounded: the evaluator truncates it
    // at a far quantile of the t2 price law.
    ThresholdProfile open_tail;
    open_tail.alice_cutoff = 0.5 * p_star;
    open_tail.bob_region = math::IntervalSet(
        {{1.2, 1.8}, {2.3, std::numeric_limits<double>::infinity()}});
    for (const ThresholdProfile& profile :
         {ThresholdProfile::honest(), at.equilibrium(), open_tail}) {
      g.text("strategy_evaluator " + std::to_string(p_star));
      g.num(at.alice_value(profile));
      g.num(at.bob_value(profile));
      g.num(at.success_rate(profile));
    }
  }
  const std::optional<OptimalRate> best = sr_maximizing_rate(defaults());
  g.text("sr_maximizing_rate");
  g.count(best.has_value());
  if (best) {
    g.num(best->p_star);
    g.num(best->success_rate);
  }
}

std::string golden_digest() {
  Golden g;
  g.text("defaults");
  games(g, defaults());
  g.text("mu > r");
  games(g, drift_above_r());
  g.text("mu == r_B");
  games(g, drift_at_r_bob());
  sweepers(g);
  uncertain_premium(g);
  rate_scans(g);
  return g.hex();
}

TEST(ModelGolden, DigestIsPinned) {
  EXPECT_EQ(golden_digest(),
            "ce40cb04adfdc4fbe9ae5e00c423776b3074c1a7aba0f430cc23d7fcce65a02e");
}

TEST(ModelGolden, RegimesReachTheirRegionShapes) {
  // The mu > r point has a single-root region that starts inside at 0; at
  // mu == r_B the margin keeps the region off 0.
  const BasicGame above(drift_above_r(), 2.0);
  ASSERT_EQ(above.t2_roots().size(), 1u);
  ASSERT_FALSE(above.bob_t2_region().empty());
  EXPECT_EQ(above.bob_t2_region().intervals().front().lo, 0.0);
  const BasicGame at(drift_at_r_bob(), 2.0);
  ASSERT_FALSE(at.bob_t2_region().empty());
  EXPECT_GT(at.bob_t2_region().intervals().front().lo, 0.0);
}

}  // namespace
}  // namespace swapgame::model
