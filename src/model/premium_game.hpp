// The premium mechanism of Han, Lin & Yu (AFT'19) as a comparison baseline
// (paper Section II-C: "to reduce the risk of malicious behaviour by the
// swap initiator, the authors propose to implement a premium mechanism").
//
// Alice (the initiator, who holds the free American option) escrows a
// premium `pr` of token-a on Chain_a at t1 in an INVERSE hash-time-locked
// escrow carrying the swap's hash:
//   * if the secret is revealed before the escrow's expiry t_a (Alice
//     performed), the escrow refunds Alice;
//   * if not (Alice waived after Bob locked), the escrow pays Bob at t_a;
//   * if Bob never locks, the escrow is cancelled back to Alice.
// Unlike Section IV's collateral, only the INITIATOR posts -- the
// mechanism targets Alice's t3 optionality and leaves Bob's t2 optionality
// untouched, which is exactly the asymmetry this module lets the benches
// compare (X5).
//
// Derivations mirror CollateralGame with one-sided deposits; thresholds:
//   L_pr = e^{(r^A - mu) tau_b} / (1 + alpha^A)
//          * max(P* e^{-r^A (eps_b + 2 tau_a)} - pr e^{-r^A tau_a}, 0)
// and Bob's t2 continuation region is again an odd-root interval set: for
// near-worthless token-b Bob locks anyway, *hoping* Alice aborts so he
// harvests the premium.  The region and the viable rates come from the
// shared sign-region solver (sign_region.hpp).
#pragma once

#include "basic_game.hpp"
#include "math/cached_value.hpp"
#include "math/interval.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Backward induction for the premium game at one (params, P_star, pr).
class PremiumGame {
 public:
  /// @throws std::invalid_argument on invalid params, p_star <= 0, pr < 0.
  PremiumGame(const SwapParams& params, double p_star, double premium);

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }
  [[nodiscard]] double premium() const noexcept { return pr_; }
  [[nodiscard]] const BasicGame& basic() const noexcept { return basic_; }

  // --- t3: Alice's reveal decision. ----------------------------------------
  /// Cont recovers the premium (claim confirms tau_a after t3).
  [[nodiscard]] double alice_t3_cont(double p_t3) const;
  /// Stop forfeits the premium to Bob; otherwise Eq. (16).
  [[nodiscard]] double alice_t3_stop() const;
  [[nodiscard]] double bob_t3_cont() const;           ///< Eq. (15), unchanged
  [[nodiscard]] double bob_t3_stop(double p_t3) const;  ///< Eq. (17) + premium
  [[nodiscard]] double alice_t3_cutoff() const noexcept { return t3_cutoff_; }
  [[nodiscard]] Action alice_decision_t3(double p_t3) const;

  // --- t2: Bob's lock decision. ---------------------------------------------
  [[nodiscard]] double alice_t2_cont(double p_t2) const;
  [[nodiscard]] double bob_t2_cont(double p_t2) const;
  [[nodiscard]] double bob_t2_stop(double p_t2) const;  ///< Eq. (23)
  [[nodiscard]] const math::IntervalSet& bob_t2_region() const noexcept {
    return t2_region_;
  }
  [[nodiscard]] Action bob_decision_t2(double p_t2) const;

  // --- t1: Alice's initiation decision (only she posts). --------------------
  [[nodiscard]] double alice_t1_cont() const;
  [[nodiscard]] double alice_t1_stop() const;  ///< P* + pr
  [[nodiscard]] double bob_t1_cont() const;
  [[nodiscard]] double bob_t1_stop() const;    ///< P_t0
  [[nodiscard]] Action alice_decision_t1() const;

  // --- Success rate. ----------------------------------------------------------
  [[nodiscard]] double success_rate() const;

 private:
  void compute_t2_region();

  SwapParams params_;
  double p_star_;
  double pr_;
  BasicGame basic_;
  double t3_cutoff_ = 0.0;
  math::IntervalSet t2_region_;
  // Quadrature-backed t1 quantities, integrated once per game instance even
  // when the game is shared across Monte-Carlo samples or sweep threads.
  math::CachedDouble alice_t1_cont_cache_;
  math::CachedDouble bob_t1_cont_cache_;
  math::CachedDouble success_rate_cache_;
};

/// Alice's feasible rate set under a given premium (she must prefer
/// initiating over keeping P* + pr).
[[nodiscard]] math::IntervalSet premium_viable_rates(const SwapParams& params,
                                                     double premium,
                                                     double scan_lo = 0.05,
                                                     double scan_hi = 10.0,
                                                     int scan_samples = 400);

}  // namespace swapgame::model
