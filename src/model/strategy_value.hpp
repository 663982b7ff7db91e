// Valuation of arbitrary threshold-strategy profiles and best responses.
//
// The backward-induction solution (BasicGame) produces one particular
// profile; this module values ANY profile of the same shape --
//   Alice: reveal at t3 iff P_t3 > cutoff    (0 = honest, +inf = never)
//   Bob:   lock at t2 iff P_t2 in region     ((0, inf) = honest, {} = never)
// -- which enables:
//   * equilibrium verification: the rational thresholds are mutual best
//     responses, and any deviation in threshold space loses utility
//     (tested by grid search);
//   * optionality decomposition: the value an agent extracts by playing
//     the rational threshold instead of committing to honesty (the "free
//     American option" of Han et al., paper Section II-C) -- see
//     option_value.hpp;
//   * what-if analysis for non-equilibrium opponents (e.g. the honest
//     counterparties of the market_scenarios example).
//
// Values are at-t1 expected utilities CONDITIONAL on the swap being
// initiated (Alice's t1 participation choice is an outer comparison
// against P*, exactly as in Eq. (30)).
#pragma once

#include <limits>

#include "basic_game.hpp"
#include "math/interval.hpp"
#include "params.hpp"

namespace swapgame::model {

/// A pair of threshold strategies.
struct ThresholdProfile {
  /// Alice reveals iff P_t3 > alice_cutoff.
  double alice_cutoff = 0.0;
  /// Bob locks iff P_t2 is in bob_region.
  math::IntervalSet bob_region;

  [[nodiscard]] static ThresholdProfile honest();
};

/// Values threshold profiles for one (params, P*) pair.
class StrategyEvaluator {
 public:
  StrategyEvaluator(const SwapParams& params, double p_star);

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }

  /// Alice's expected utility at t1 given both agents play `profile` and
  /// the swap is initiated.
  [[nodiscard]] double alice_value(const ThresholdProfile& profile) const;

  /// Bob's expected utility at t1 under the same conditions.
  [[nodiscard]] double bob_value(const ThresholdProfile& profile) const;

  /// Completion probability under the profile.
  [[nodiscard]] double success_rate(const ThresholdProfile& profile) const;

  /// Alice's best-response cutoff.  Her t3 choice is pointwise optimal, so
  /// the best response is the Eq. (18) cutoff regardless of Bob's region
  /// (a dominant threshold).
  [[nodiscard]] double alice_best_response_cutoff() const;

  /// Bob's best-response region to a given Alice cutoff: the set where his
  /// continuation value (under that cutoff) exceeds keeping the token
  /// (sign_region.hpp, with no strict-preference margin).
  [[nodiscard]] math::IntervalSet bob_best_response(double alice_cutoff) const;

  /// The backward-induction equilibrium profile (from BasicGame).
  [[nodiscard]] ThresholdProfile equilibrium() const;

 private:
  /// The region with an unbounded last piece ending at tail_hi_.
  [[nodiscard]] math::IntervalSet bounded(
      const math::IntervalSet& region) const;

  SwapParams params_;
  double p_star_;
  BasicGame game_;
  double tail_hi_;  ///< effective upper bound for unbounded region pieces
};

}  // namespace swapgame::model
