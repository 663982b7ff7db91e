#include "premium_uncertainty.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "basic_game.hpp"
#include "math/gbm.hpp"
#include "sign_region.hpp"

namespace swapgame::model {

void AlphaPrior::validate_and_normalize() {
  if (alphas.empty() || alphas.size() != weights.size()) {
    throw std::invalid_argument("AlphaPrior: support/weights size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (!std::isfinite(alphas[i]) || alphas[i] < -1.0) {
      throw std::invalid_argument("AlphaPrior: alpha must be finite and >= -1");
    }
    if (!(weights[i] >= 0.0) || !std::isfinite(weights[i])) {
      throw std::invalid_argument("AlphaPrior: weights must be >= 0");
    }
    total += weights[i];
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("AlphaPrior: total weight must be positive");
  }
  for (double& w : weights) w /= total;
}

AlphaPrior AlphaPrior::point(double alpha) {
  AlphaPrior p{{alpha}, {1.0}};
  p.validate_and_normalize();
  return p;
}

double AlphaPrior::mean() const noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) m += alphas[i] * weights[i];
  return m;
}

UncertainPremiumGame::UncertainPremiumGame(const SwapParams& params,
                                           AlphaPrior belief_alpha_a,
                                           AlphaPrior belief_alpha_b,
                                           double p_star)
    : params_(params), belief_a_(std::move(belief_alpha_a)),
      belief_b_(std::move(belief_alpha_b)), p_star_(p_star) {
  params_.validate();
  belief_a_.validate_and_normalize();
  belief_b_.validate_and_normalize();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("UncertainPremiumGame: p_star must be > 0");
  }
  compute_band();
}

double UncertainPremiumGame::cutoff_for_alpha(double alpha) const {
  const double rA = params_.alice.r;
  const double mu = params_.gbm.mu;
  return std::exp((rA - mu) * params_.tau_b -
                  rA * (params_.eps_b + 2.0 * params_.tau_a)) *
         p_star_ / (1.0 + alpha);
}

double UncertainPremiumGame::bob_t2_cont_bayes(double p_t2) const {
  // Eq. (21) with the indicator split averaged over the alpha^A prior: each
  // candidate Alice has her own cutoff, so the reveal probability and the
  // refund partial expectation are prior mixtures.
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double bob_t3_cont = (1.0 + params_.bob.alpha) * p_star_ *
                             std::exp(-params_.bob.r *
                                      (params_.eps_b + params_.tau_a));
  const double refund_growth =
      std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b);
  double value = 0.0;
  for (std::size_t i = 0; i < belief_a_.alphas.size(); ++i) {
    const double L = cutoff_for_alpha(belief_a_.alphas[i]);
    const double branch = law.survival(L) * bob_t3_cont +
                          refund_growth * law.partial_expectation_below(L);
    value += belief_a_.weights[i] * branch;
  }
  return value * std::exp(-params_.bob.r * params_.tau_b);
}

std::optional<math::Interval> UncertainPremiumGame::band_for_bob(
    double alpha_b) const {
  // Same solve as BasicGame's t2 region (sign_region.hpp) but with the
  // Bayesian continuation value and a hypothetical alpha^B.
  SwapParams p = params_;
  p.bob.alpha = alpha_b;
  const UncertainPremiumGame* self = this;
  const auto gap = [self, &p](double price) {
    // Rebuild Bob's Bayesian cont value with premium alpha_b.
    const math::GbmLaw law(p.gbm, price, p.tau_b);
    const double bob_t3_cont =
        (1.0 + p.bob.alpha) * self->p_star_ *
        std::exp(-p.bob.r * (p.eps_b + p.tau_a));
    const double refund_growth =
        std::exp((p.gbm.mu - p.bob.r) * 2.0 * p.tau_b);
    double value = 0.0;
    for (std::size_t i = 0; i < self->belief_a_.alphas.size(); ++i) {
      const double L = self->cutoff_for_alpha(self->belief_a_.alphas[i]);
      value += self->belief_a_.weights[i] *
               (law.survival(L) * bob_t3_cont +
                refund_growth * law.partial_expectation_below(L));
    }
    return value * std::exp(-p.bob.r * p.tau_b) - price;
  };
  // The complete-information solvers' window and strict-preference margin,
  // so the degenerate-equality regimes and SR comparisons line up.
  const std::vector<double> roots =
      sign_region(gap, ScanWindow::prices(std::max(p_star_, params_.p_t0)),
                  2048)
          .roots;
  if (roots.size() < 2) return std::nullopt;
  return math::Interval{roots.front(), roots.back()};
}

void UncertainPremiumGame::compute_band() {
  band_ = band_for_bob(params_.bob.alpha);
}

double UncertainPremiumGame::alice_t1_cont_bayes() const {
  // Alice mixes over the bands of each candidate Bob.  Inside a candidate
  // band her value is the complete-information alice_t2_cont (her own t3
  // behaviour does not depend on beliefs); outside she is refunded.
  const math::GbmLaw law(params_.gbm, params_.p_t0, params_.tau_a);
  const BasicGame reference(params_, p_star_);
  double value = 0.0;
  for (std::size_t i = 0; i < belief_b_.alphas.size(); ++i) {
    const auto band = band_for_bob(belief_b_.alphas[i]);
    double branch;
    if (!band) {
      branch = reference.alice_t2_stop();
    } else {
      const double inside = region_integral(
          math::IntervalSet({*band}), kDepositRule,
          [&](double x) { return law.pdf(x) * reference.alice_t2_cont(x); });
      const double outside_prob = law.cdf(band->lo) + law.survival(band->hi);
      branch = inside + outside_prob * reference.alice_t2_stop();
    }
    value += belief_b_.weights[i] * branch;
  }
  return value * std::exp(-params_.alice.r * params_.tau_a);
}

Action UncertainPremiumGame::alice_decision_t1() const {
  return alice_t1_cont_bayes() > alice_t1_stop() ? Action::kCont
                                                 : Action::kStop;
}

double UncertainPremiumGame::realized_success_rate() const {
  if (!band_) return 0.0;
  return region_success_rate(params_, math::IntervalSet({*band_}),
                             kDepositRule,
                             cutoff_for_alpha(params_.alice.alpha));
}

double UncertainPremiumGame::believed_success_rate() const {
  if (!band_) return 0.0;
  const math::GbmLaw law_a(params_.gbm, params_.p_t0, params_.tau_a);
  return region_integral(
      math::IntervalSet({*band_}), kDepositRule, [&](double x) {
        const math::GbmLaw law_b(params_.gbm, x, params_.tau_b);
        double reveal = 0.0;
        for (std::size_t i = 0; i < belief_a_.alphas.size(); ++i) {
          reveal += belief_a_.weights[i] *
                    law_b.survival(cutoff_for_alpha(belief_a_.alphas[i]));
        }
        return law_a.pdf(x) * reveal;
      });
}

}  // namespace swapgame::model
