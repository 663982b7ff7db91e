#include "strategy_value.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"
#include "math/quadrature.hpp"

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

double StrategyEvaluator::alice_t2_value(double x, double cutoff) const {
  // Eq. (20) with an arbitrary reveal cutoff.
  const math::GbmLaw law(params_.gbm, x, params_.tau_b);
  const double cont_part =
      (1.0 + params_.alice.alpha) *
      std::exp((params_.gbm.mu - params_.alice.r) * params_.tau_b) *
      law.partial_expectation_above(cutoff);
  const double stop_part = law.cdf(cutoff) * game_.alice_t3_stop();
  return (cont_part + stop_part) * std::exp(-params_.alice.r * params_.tau_b);
}

double StrategyEvaluator::bob_t2_value(double x, double cutoff) const {
  // Eq. (21) with an arbitrary reveal cutoff.
  const math::GbmLaw law(params_.gbm, x, params_.tau_b);
  const double cont_part = law.survival(cutoff) * game_.bob_t3_cont();
  const double stop_part =
      std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b) *
      law.partial_expectation_below(cutoff);
  return (cont_part + stop_part) * std::exp(-params_.bob.r * params_.tau_b);
}

double StrategyEvaluator::integrate_region(
    const math::IntervalSet& region,
    const std::function<double(double)>& f) const {
  double total = 0.0;
  for (const math::Interval& piece : region.intervals()) {
    const double lo = std::max(piece.lo, 1e-12);
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    if (!(hi > lo)) continue;
    total += math::gauss_legendre(f, lo, hi, 48);
  }
  return total;
}

double StrategyEvaluator::alice_value(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  const double cutoff = profile.alice_cutoff;
  const double inside = integrate_region(
      profile.bob_region,
      [&](double x) { return law_a.pdf(x) * alice_t2_value(x, cutoff); });
  double inside_prob = 0.0;
  for (const math::Interval& piece : profile.bob_region.intervals()) {
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    inside_prob += law_a.cdf(hi) - law_a.cdf(piece.lo);
  }
  const double outside_prob = std::max(0.0, 1.0 - inside_prob);
  return (inside + outside_prob * game_.alice_t2_stop()) *
         std::exp(-params_.alice.r * params_.tau_a);
}

double StrategyEvaluator::bob_value(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  const double cutoff = profile.alice_cutoff;
  const double inside = integrate_region(
      profile.bob_region,
      [&](double x) { return law_a.pdf(x) * bob_t2_value(x, cutoff); });
  double inside_pe = 0.0;
  for (const math::Interval& piece : profile.bob_region.intervals()) {
    const double hi = std::isinf(piece.hi) ? tail_hi_ : piece.hi;
    inside_pe += law_a.partial_expectation_below(hi) -
                 law_a.partial_expectation_below(piece.lo);
  }
  const double outside = std::max(0.0, law_a.expectation() - inside_pe);
  return (inside + outside) * std::exp(-params_.bob.r * params_.tau_a);
}

double StrategyEvaluator::success_rate(const ThresholdProfile& profile) const {
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  const double cutoff = profile.alice_cutoff;
  return integrate_region(profile.bob_region, [&](double x) {
    const math::GbmLaw law_b(params_.gbm, x, params_.tau_b);
    return law_a.pdf(x) * law_b.survival(cutoff);
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
             [&](double p) { return bob_t2_value(p, alice_cutoff) - p; },
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
