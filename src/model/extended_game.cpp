#include "extended_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"

namespace swapgame::model {

void TokenRates::validate() const {
  if (!std::isfinite(r_a) || !(r_a > 0.0) || !std::isfinite(r_b) ||
      !(r_b > 0.0)) {
    throw std::invalid_argument("TokenRates: rates must be finite and > 0");
  }
}

void ExtendedParams::validate() const {
  base.validate();
  alice.validate();
  bob.validate();
  if (!(fee_a >= 0.0) || !std::isfinite(fee_a) || !(fee_b >= 0.0) ||
      !std::isfinite(fee_b)) {
    throw std::invalid_argument("ExtendedParams: fees must be >= 0 and finite");
  }
}

ExtendedParams ExtendedParams::from_basic(const SwapParams& params) {
  ExtendedParams ext;
  ext.base = params;
  ext.alice = {params.alice.r, params.alice.r};
  ext.bob = {params.bob.r, params.bob.r};
  return ext;
}

ExtendedGame::ExtendedGame(const ExtendedParams& params, double p_star)
    : params_(params), p_star_(p_star) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("ExtendedGame: p_star must be positive");
  }
  compute_t3_cutoff();
  compute_t2_region();
}

// ---------------------------------------------------------------- t3 stage

double ExtendedGame::alice_t3_cont(double p_t3) const {
  // Token-b received at t3 + tau_b, discounted at Alice's token-b rate;
  // the claim transaction on Chain_b costs fee_b now.
  const SwapParams& b = params_.base;
  return (1.0 + b.alice.alpha) * p_t3 *
             std::exp((b.gbm.mu - params_.alice.r_b) * b.tau_b) -
         params_.fee_b;
}

double ExtendedGame::alice_t3_stop() const {
  const SwapParams& b = params_.base;
  return p_star_ * std::exp(-params_.alice.r_a * (b.eps_b + 2.0 * b.tau_a));
}

void ExtendedGame::compute_t3_cutoff() {
  // (1 + alpha) L e^{(mu - r_b) tau_b} - fee_b = stop  =>  solve for L.
  const SwapParams& b = params_.base;
  t3_cutoff_ = (alice_t3_stop() + params_.fee_b) *
               std::exp((params_.alice.r_b - b.gbm.mu) * b.tau_b) /
               (1.0 + b.alice.alpha);
}

Action ExtendedGame::alice_decision_t3(double p_t3) const {
  return p_t3 > t3_cutoff_ ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double ExtendedGame::bob_t2_cont(double p_t2) const {
  const SwapParams& b = params_.base;
  const math::GbmLaw law(b.gbm, p_t2, b.tau_b);
  const double L = t3_cutoff_;
  // Reveal branch: P* token-a at t6 = t2 + tau_b + eps_b + tau_a, minus the
  // Chain_a claim fee paid at t4 = t2 + tau_b + eps_b.
  const double reveal_value =
      (1.0 + b.bob.alpha) * p_star_ *
          std::exp(-params_.bob.r_a * (b.tau_b + b.eps_b + b.tau_a)) -
      params_.fee_a * std::exp(-params_.bob.r_a * (b.tau_b + b.eps_b));
  // Waive branch: the token-b comes back at t7 = t2 + 3 tau_b.
  const double waive_value =
      law.partial_expectation_below(L) *
      std::exp(2.0 * b.gbm.mu * b.tau_b - 3.0 * params_.bob.r_b * b.tau_b);
  // The Chain_b deploy fee is paid now.
  return law.survival(L) * reveal_value + waive_value - params_.fee_b;
}

double ExtendedGame::bob_t2_stop(double p_t2) const { return p_t2; }

void ExtendedGame::compute_t2_region() {
  const auto gap = [this](double p) {
    return bob_t2_cont(p) - bob_t2_stop(p);
  };
  const double scale = std::max({p_star_, params_.base.p_t0, t3_cutoff_});
  t2_region_ = sign_region(gap, ScanWindow::prices(scale), 2048).set;
}

std::optional<math::Interval> ExtendedGame::bob_t2_band() const noexcept {
  if (t2_region_.size() != 1) return std::nullopt;
  return t2_region_.intervals().front();
}

Action ExtendedGame::bob_decision_t2(double p_t2) const {
  return t2_region_.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double ExtendedGame::alice_t1_cont() const {
  // Full branch expansion anchored at t1 (mixed token rates preclude stage
  // composition; see header).
  const SwapParams& b = params_.base;
  const math::GbmLaw law_a(b.gbm, b.p_t0, b.tau_a);
  const double L = t3_cutoff_;
  const double refund_time = 3.0 * b.tau_a + b.tau_b + b.eps_b;  // t8 - t1

  // int pdf_a(x) PE_above_x(L) dx over the region; the reveal probability
  // int pdf_a(x) survival_x(L) dx is the success rate.
  const double reveal_pe =
      region_integral(t2_region_, kBasicRule, [&](double x) {
        const math::GbmLaw law_b(b.gbm, x, b.tau_b);
        return law_a.pdf(x) * law_b.partial_expectation_above(L);
      });
  const double reveal_prob = success_rate();

  const double token_b_value =
      (1.0 + b.alice.alpha) * reveal_pe *
      std::exp(b.gbm.mu * b.tau_b -
               params_.alice.r_b * (b.tau_a + 2.0 * b.tau_b));
  const double claim_fee_cost =
      params_.fee_b * reveal_prob *
      std::exp(-params_.alice.r_a * (b.tau_a + b.tau_b));
  const double refund_value =
      (1.0 - reveal_prob) * p_star_ *
      std::exp(-params_.alice.r_a * refund_time);
  return token_b_value - claim_fee_cost + refund_value - params_.fee_a;
}

double ExtendedGame::alice_t1_stop() const { return p_star_; }

Action ExtendedGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

// ------------------------------------------------------------ success rate

double ExtendedGame::success_rate() const {
  return region_success_rate(params_.base, t2_region_, kBasicRule, t3_cutoff_);
}

// ------------------------------------------------------------- free helpers

FeasibleBand extended_feasible_band(const ExtendedParams& params,
                                    double scan_lo, double scan_hi,
                                    int scan_samples) {
  params.validate();
  const auto gap = [&params](double p_star) {
    const ExtendedGame game(params, p_star);
    return game.alice_t1_cont() - game.alice_t1_stop();
  };
  return feasible_band(gap, scan_lo, scan_hi, scan_samples);
}

}  // namespace swapgame::model
