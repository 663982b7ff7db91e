#include "premium_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"

namespace swapgame::model {

namespace {

constexpr int kRegionScanSamples = 4096;

}  // namespace

PremiumGame::PremiumGame(const SwapParams& params, double p_star,
                         double premium)
    : params_(params), p_star_(p_star), pr_(premium), basic_(params, p_star) {
  if (!(premium >= 0.0) || !std::isfinite(premium)) {
    throw std::invalid_argument("PremiumGame: premium must be >= 0 and finite");
  }
  // The basic cutoff shifted down by the premium Alice claims back tau_a
  // after revealing.
  t3_cutoff_ = deposit_t3_cutoff(
      params_, basic_.alice_t3_stop(),
      pr_ * std::exp(-params_.alice.r * params_.tau_a));
  compute_t2_region();
}

// ---------------------------------------------------------------- t3 stage

double PremiumGame::alice_t3_cont(double p_t3) const {
  // Reveal + immediately claim the escrow on Chain_a: the claim confirms
  // tau_a after t3.
  return basic_.alice_t3_cont(p_t3) +
         pr_ * std::exp(-params_.alice.r * params_.tau_a);
}

double PremiumGame::alice_t3_stop() const { return basic_.alice_t3_stop(); }

double PremiumGame::bob_t3_cont() const { return basic_.bob_t3_cont(); }

double PremiumGame::bob_t3_stop(double p_t3) const {
  // The escrow times out at t_a = t3 + eps_b + tau_a and pays Bob tau_a
  // later, i.e. eps_b + 2 tau_a after t3.
  return basic_.bob_t3_stop(p_t3) +
         pr_ * std::exp(-params_.bob.r * (params_.eps_b + 2.0 * params_.tau_a));
}

Action PremiumGame::alice_decision_t3(double p_t3) const {
  return p_t3 > t3_cutoff_ ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double PremiumGame::alice_t2_cont(double p_t2) const {
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double L = t3_cutoff_;
  const double recovery = pr_ * std::exp(-params_.alice.r * params_.tau_a);
  const double cont_part =
      (1.0 + params_.alice.alpha) *
          std::exp((params_.gbm.mu - params_.alice.r) * params_.tau_b) *
          law.partial_expectation_above(L) +
      law.survival(L) * recovery;
  const double stop_part = law.cdf(L) * basic_.alice_t3_stop();
  return (cont_part + stop_part) * std::exp(-params_.alice.r * params_.tau_b);
}

double PremiumGame::bob_t2_cont(double p_t2) const {
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double L = t3_cutoff_;
  const double premium_gain =
      pr_ * std::exp(-params_.bob.r * (params_.eps_b + 2.0 * params_.tau_a));
  const double cont_part = law.survival(L) * basic_.bob_t3_cont();
  const double stop_part =
      std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b) *
          law.partial_expectation_below(L) +
      law.cdf(L) * premium_gain;
  return (cont_part + stop_part) * std::exp(-params_.bob.r * params_.tau_b);
}

double PremiumGame::bob_t2_stop(double p_t2) const {
  // Bob walks; the escrow is cancelled back to Alice, so Bob just keeps his
  // token-b (Eq. 23).
  return p_t2;
}

void PremiumGame::compute_t2_region() {
  const auto gap = [this](double p) {
    return bob_t2_cont(p) - bob_t2_stop(p);
  };
  const double scale = std::max({p_star_, params_.p_t0, t3_cutoff_, pr_});
  t2_region_ =
      sign_region(gap, ScanWindow::prices(scale), kRegionScanSamples).set;
}

Action PremiumGame::bob_decision_t2(double p_t2) const {
  return t2_region_.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double PremiumGame::alice_t1_cont() const {
  // If Bob stops at t2 the escrow is cancelled at t3 and Alice receives her
  // premium back tau_a later, i.e. tau_b + tau_a after t2.
  return alice_t1_cont_cache_.get([this] {
    const double stop_value =
        basic_.alice_t2_stop() +
        pr_ * std::exp(-params_.alice.r * (params_.tau_b + params_.tau_a));
    return alice_t1_value(
        params_, t2_region_, kDepositRule,
        [this](double x) { return alice_t2_cont(x); }, stop_value);
  });
}

double PremiumGame::alice_t1_stop() const { return p_star_ + pr_; }

double PremiumGame::bob_t1_cont() const {
  return bob_t1_cont_cache_.get([this] {
    return bob_t1_value(params_, t2_region_, kDepositRule,
                        [this](double x) { return bob_t2_cont(x); });
  });
}

double PremiumGame::bob_t1_stop() const { return params_.p_t0; }

Action PremiumGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

// ------------------------------------------------------------ success rate

double PremiumGame::success_rate() const {
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_region_, kDepositRule, t3_cutoff_);
  });
}

// ------------------------------------------------------------- free helpers

math::IntervalSet premium_viable_rates(const SwapParams& params,
                                       double premium, double scan_lo,
                                       double scan_hi, int scan_samples) {
  params.validate();
  const auto gap = [&](double p_star) {
    const PremiumGame g(params, p_star, premium);
    return g.alice_t1_cont() - g.alice_t1_stop();
  };
  return positive_set(gap, scan_lo, scan_hi, scan_samples);
}

}  // namespace swapgame::model
