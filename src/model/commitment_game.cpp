#include "commitment_game.hpp"

#include <cmath>
#include <stdexcept>

#include "math/gbm.hpp"

namespace swapgame::model {

CommitmentGame::CommitmentGame(const SwapParams& params, double p_star)
    : params_(params), p_star_(p_star) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("CommitmentGame: p_star must be positive");
  }
  // Bob's indifference: (1 + alpha^B) P* e^{-r^B (tau_b + tau_a)} = p.
  bob_hi_ = (1.0 + params_.bob.alpha) * p_star_ *
            std::exp(-params_.bob.r * (params_.tau_b + params_.tau_a));
}

double CommitmentGame::bob_t2_cont() const {
  // His lock confirms at t3 = t2 + tau_b; the witness commits and his
  // token-a transfer confirms tau_a later.
  return (1.0 + params_.bob.alpha) * p_star_ *
         std::exp(-params_.bob.r * (params_.tau_b + params_.tau_a));
}

double CommitmentGame::bob_t2_stop(double p_t2) const { return p_t2; }

Action CommitmentGame::bob_decision_t2(double p_t2) const {
  return p_t2 <= bob_hi_ ? Action::kCont : Action::kStop;
}

double CommitmentGame::alice_t1_cont() const {
  // Completion branch (P_t2 <= threshold): she receives the token-b at
  // t3 + tau_b = t1 + tau_a + 2 tau_b, whose conditional expected value is
  // the lower partial expectation grown over the remaining 2 tau_b.
  // Abort branch: refund at t_a + tau_a = t1 + 3 tau_a + tau_b.
  const math::GbmLaw law(params_.gbm, params_.p_t0, params_.tau_a);
  const double mu = params_.gbm.mu;
  const double rA = params_.alice.r;
  const double complete =
      (1.0 + params_.alice.alpha) * law.partial_expectation_below(bob_hi_) *
      std::exp(2.0 * mu * params_.tau_b -
               rA * (params_.tau_a + 2.0 * params_.tau_b));
  const double abort = law.survival(bob_hi_) * p_star_ *
                       std::exp(-rA * (3.0 * params_.tau_a + params_.tau_b));
  return complete + abort;
}

double CommitmentGame::alice_t1_stop() const { return p_star_; }

Action CommitmentGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

double CommitmentGame::bob_t1_cont() const {
  // From t1, Bob's t2 value is bob_t2_cont below the threshold and the
  // realized token-b price above it.
  const math::GbmLaw law(params_.gbm, params_.p_t0, params_.tau_a);
  return (law.cdf(bob_hi_) * bob_t2_cont() +
          law.partial_expectation_above(bob_hi_)) *
         std::exp(-params_.bob.r * params_.tau_a);
}

double CommitmentGame::bob_t1_stop() const { return params_.p_t0; }

double CommitmentGame::success_rate() const {
  const math::GbmLaw law(params_.gbm, params_.p_t0, params_.tau_a);
  return law.cdf(bob_hi_);
}

FeasibleBand commitment_feasible_band(const SwapParams& params, double scan_lo,
                                      double scan_hi, int scan_samples) {
  params.validate();
  const auto gap = [&params](double p_star) {
    const CommitmentGame game(params, p_star);
    return game.alice_t1_cont() - game.alice_t1_stop();
  };
  return feasible_band(gap, scan_lo, scan_hi, scan_samples);
}

}  // namespace swapgame::model
