// Extended swap game: per-token discount rates and transaction fees.
//
// The paper's Section V names both as future work: "future models may
// incorporate different risk-free rates for the two exchanged tokens,
// which resembles the settings of the Garman Kohlhagen model.  In
// addition, blockchain transaction fees or coin stacking ... may have an
// impact on agents' actions."
//
// This module implements both:
//  * each agent discounts token-a flows at r_a and token-b flows at r_b
//    (GK two-currency setting; a staking/dividend yield y on a token is
//    the special case r_token = r - y);
//  * every transaction an agent actively submits costs a flat fee
//    (token-a-denominated): Alice pays fee_a at t1 (deploy) and fee_b at
//    t3 (claim); Bob pays fee_b at t2 (deploy) and fee_a at t4 (claim).
//    Automatic refunds are contract-initiated and free (documented
//    simplification).
//
// Setting r_a = r_b = r and zero fees recovers BasicGame exactly (pinned
// by tests).  Because the stage branches now mix token-a- and token-b-
// denominated flows with different rates, utilities are computed by
// discounting each receipt from the decision anchor at its own asset rate
// rather than composing stage values.  Bob's t2 region and Alice's band come
// from the shared sign-region solver (sign_region.hpp).
#pragma once

#include <optional>

#include "basic_game.hpp"
#include "math/interval.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Per-agent, per-token discount rates.
struct TokenRates {
  double r_a = 0.01;  ///< rate for token-a flows (per hour)
  double r_b = 0.01;  ///< rate for token-b flows (per hour)

  /// Throws std::invalid_argument unless both are finite and > 0.
  void validate() const;
};

/// Full parameter set of the extended game.
struct ExtendedParams {
  SwapParams base;          ///< alpha, timings, p0, gbm (base r fields unused)
  TokenRates alice;
  TokenRates bob;
  double fee_a = 0.0;       ///< flat fee per Chain_a transaction (token-a)
  double fee_b = 0.0;       ///< flat fee per Chain_b transaction (token-a)

  void validate() const;

  /// Embeds a plain SwapParams (both token rates = the agent's r, no fees),
  /// under which ExtendedGame must coincide with BasicGame.
  [[nodiscard]] static ExtendedParams from_basic(const SwapParams& params);
};

/// Backward induction for the extended game.
class ExtendedGame {
 public:
  ExtendedGame(const ExtendedParams& params, double p_star);

  [[nodiscard]] const ExtendedParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }

  // --- t3 (anchored at t3). --------------------------------------------------
  [[nodiscard]] double alice_t3_cont(double p_t3) const;
  [[nodiscard]] double alice_t3_stop() const;
  [[nodiscard]] double alice_t3_cutoff() const noexcept { return t3_cutoff_; }
  [[nodiscard]] Action alice_decision_t3(double p_t3) const;

  // --- t2 (anchored at t2). --------------------------------------------------
  [[nodiscard]] double bob_t2_cont(double p_t2) const;
  [[nodiscard]] double bob_t2_stop(double p_t2) const;
  /// Single-interval view (nullopt when empty or multi-piece); the general
  /// region is bob_t2_region().
  [[nodiscard]] std::optional<math::Interval> bob_t2_band() const noexcept;
  [[nodiscard]] const math::IntervalSet& bob_t2_region() const noexcept {
    return t2_region_;
  }
  [[nodiscard]] Action bob_decision_t2(double p_t2) const;

  // --- t1 (anchored at t1). --------------------------------------------------
  [[nodiscard]] double alice_t1_cont() const;
  [[nodiscard]] double alice_t1_stop() const;  ///< P*
  [[nodiscard]] Action alice_decision_t1() const;

  // --- Success rate. -----------------------------------------------------------
  [[nodiscard]] double success_rate() const;

 private:
  void compute_t3_cutoff();
  void compute_t2_region();

  ExtendedParams params_;
  double p_star_;
  double t3_cutoff_ = 0.0;
  math::IntervalSet t2_region_;
};

/// Alice's feasible rate band in the extended game.
[[nodiscard]] FeasibleBand extended_feasible_band(const ExtendedParams& params,
                                                  double scan_lo = 0.05,
                                                  double scan_hi = 10.0,
                                                  int scan_samples = 400);

}  // namespace swapgame::model
