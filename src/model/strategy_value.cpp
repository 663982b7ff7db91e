#include "strategy_value.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"

namespace swapgame::model {

ThresholdProfile ThresholdProfile::honest() {
  ThresholdProfile profile;
  profile.alice_cutoff = 0.0;
  profile.bob_region = math::IntervalSet(
      {{0.0, std::numeric_limits<double>::infinity()}});
  return profile;
}

StrategyEvaluator::StrategyEvaluator(const SwapParams& params, double p_star)
    : params_(params), p_star_(p_star), game_(params, p_star) {
  // Far tail of the t2 price law: integrating beyond contributes < 1e-9.
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  tail_hi_ = law_a.quantile(1.0 - 1e-10);
}

math::IntervalSet StrategyEvaluator::bounded(
    const math::IntervalSet& region) const {
  std::vector<math::Interval> pieces = region.intervals();
  if (!pieces.empty() && std::isinf(pieces.back().hi)) {
    pieces.back().hi = tail_hi_;
  }
  return math::IntervalSet(std::move(pieces));
}

double StrategyEvaluator::alice_value(const ThresholdProfile& profile) const {
  return alice_t1_value(
      params_, bounded(profile.bob_region), kEvaluatorRule,
      [&](double x) { return game_.alice_t2_cont(x, profile.alice_cutoff); },
      game_.alice_t2_stop());
}

double StrategyEvaluator::bob_value(const ThresholdProfile& profile) const {
  return bob_t1_value(
      params_, bounded(profile.bob_region), kEvaluatorRule,
      [&](double x) { return game_.bob_t2_cont(x, profile.alice_cutoff); });
}

double StrategyEvaluator::success_rate(const ThresholdProfile& profile) const {
  // Quadrature even at cutoff 0 (the honest profile), where
  // region_success_rate's closed form would move the result by a few ulps.
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  return region_integral(
      bounded(profile.bob_region), kEvaluatorRule, [&](double x) {
        const math::GbmLaw law_b(params_.gbm, x, params_.tau_b);
        return law_a.pdf(x) * law_b.survival(profile.alice_cutoff);
      });
}

double StrategyEvaluator::alice_best_response_cutoff() const {
  return game_.alice_t3_cutoff();
}

math::IntervalSet StrategyEvaluator::bob_best_response(
    double alice_cutoff) const {
  // No strict-preference margin, and a fixed lower scan end.
  const double scan_hi =
      10.0 * std::max({p_star_, params_.p_t0, alice_cutoff});
  return sign_region(
             [&](double p) { return game_.bob_t2_cont(p, alice_cutoff) - p; },
             {.domain_lo = 0.0, .lo = 1e-9, .hi = scan_hi}, 2048)
      .set;
}

ThresholdProfile StrategyEvaluator::equilibrium() const {
  ThresholdProfile profile;
  profile.alice_cutoff = game_.alice_t3_cutoff();
  profile.bob_region = game_.bob_t2_region();
  return profile;
}

}  // namespace swapgame::model
