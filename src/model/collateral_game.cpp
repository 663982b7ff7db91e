#include "collateral_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"
#include "solver_cache.hpp"

namespace swapgame::model {

namespace {

constexpr int kRegionScanSamples = 4096;

// Verification resolution for warm-started solves (finer than the basic
// game's: the collateral gap can have 3 crossings, Fig. 7).
constexpr int kWarmVerifySamples = 513;

}  // namespace

CollateralGame::CollateralGame(const SwapParams& params, double p_star,
                               double collateral,
                               const std::vector<double>& basic_t2_root_hints,
                               const std::vector<double>& t2_root_hints)
    : params_(params), p_star_(p_star), q_(collateral),
      basic_(params, p_star, basic_t2_root_hints) {
  if (!(collateral >= 0.0) || !std::isfinite(collateral)) {
    throw std::invalid_argument(
        "CollateralGame: collateral must be >= 0 and finite");
  }
  // Eq. (34): the basic cutoff shifted down by the collateral recovered
  // at t4 + tau_a.
  t3_cutoff_ = deposit_t3_cutoff(
      params_, basic_.alice_t3_stop(),
      q_ * std::exp(-params_.alice.r * (params_.eps_b + params_.tau_a)));
  compute_t2_region(t2_root_hints);
}

// ---------------------------------------------------------------- t3 stage

double CollateralGame::alice_t3_cont(double p_t3) const {
  // Basic cont utility plus the collateral recovered at t4 + tau_a, i.e.
  // eps_b + tau_a after t3 (Section IV-2).
  return basic_.alice_t3_cont(p_t3) +
         q_ * std::exp(-params_.alice.r * (params_.eps_b + params_.tau_a));
}

double CollateralGame::alice_t3_stop() const { return basic_.alice_t3_stop(); }

Action CollateralGame::alice_decision_t3(double p_t3) const {
  return p_t3 > t3_cutoff_ ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double CollateralGame::alice_t2_cont(double p_t2) const {
  // Eq. (36)'s integrand value: Alice's expected t3 value when Bob locked.
  // On the reveal branch she also recovers her collateral; on the waive
  // branch she forfeits it.
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double L = t3_cutoff_;
  const double recovery =
      q_ * std::exp(-params_.alice.r * (params_.eps_b + params_.tau_a));
  const double cont_part =
      (1.0 + params_.alice.alpha) *
          std::exp((params_.gbm.mu - params_.alice.r) * params_.tau_b) *
          law.partial_expectation_above(L) +
      law.survival(L) * recovery;
  const double stop_part = law.cdf(L) * basic_.alice_t3_stop();
  return (cont_part + stop_part) * std::exp(-params_.alice.r * params_.tau_b);
}

double CollateralGame::bob_t2_cont(double p_t2) const {
  // Eq. (35): Bob's own collateral comes back at t3 + tau_a regardless
  // (he has fulfilled his obligations by locking); if Alice waives he
  // additionally receives her forfeited collateral at t4 + tau_a.
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double L = t3_cutoff_;
  const double own_recovery = q_ * std::exp(-params_.bob.r * params_.tau_a);
  const double forfeit_gain =
      q_ * std::exp(-params_.bob.r * (params_.eps_b + params_.tau_a));
  const double cont_part = law.survival(L) * basic_.bob_t3_cont();
  const double stop_part =
      std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b) *
          law.partial_expectation_below(L) +
      law.cdf(L) * forfeit_gain;
  return (own_recovery + cont_part + stop_part) *
         std::exp(-params_.bob.r * params_.tau_b);
}

double CollateralGame::bob_t2_stop(double p_t2) const {
  // Eq. (23): stopping forfeits Bob's collateral (released to Alice), so
  // his stop utility is just the token-b value.
  return p_t2;
}

void CollateralGame::compute_t2_region(const std::vector<double>& hints) {
  // Roots of bob_t2_cont(p) - p.  With Q > 0 the gap is positive as p -> 0
  // (recovering 2 discounted Q beats keeping a worthless token) and
  // negative as p -> inf, so there is an odd number of crossings (Fig. 7).
  SignRegion solved = sign_region(
      [this](double p) { return bob_t2_cont(p) - bob_t2_stop(p); },
      ScanWindow::prices(std::max({p_star_, params_.p_t0, t3_cutoff_, q_})),
      kRegionScanSamples, hints, kWarmVerifySamples);
  t2_roots_ = std::move(solved.roots);
  t2_region_ = std::move(solved.set);
}

Action CollateralGame::bob_decision_t2(double p_t2) const {
  return t2_region_.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double CollateralGame::alice_t1_cont() const {
  // Eq. (36).  Where Bob will lock, Alice's value is alice_t2_cont; where
  // Bob will stop, Alice is refunded (Eq. 22) and receives both collaterals
  // 2Q at t3 (decided) + tau_a (confirmation), i.e. tau_b + tau_a after t2.
  return alice_t1_cont_cache_.get([this] {
    const double stop_value =
        basic_.alice_t2_stop() +
        2.0 * q_ * std::exp(-params_.alice.r * (params_.tau_b + params_.tau_a));
    return alice_t1_value(
        params_, t2_region_, kDepositRule,
        [this](double x) { return alice_t2_cont(x); }, stop_value);
  });
}

double CollateralGame::alice_t1_stop() const {
  // Eq. (38): keep the token-a and the would-be collateral.
  return p_star_ + q_;
}

double CollateralGame::bob_t1_cont() const {
  // Eq. (37) (with the r^A typo read as r^B; see DESIGN.md): inside the
  // region Bob's value is bob_t2_cont; outside he keeps token-b worth the
  // realized price and forfeits his collateral.
  return bob_t1_cont_cache_.get([this] {
    return bob_t1_value(params_, t2_region_, kDepositRule,
                        [this](double x) { return bob_t2_cont(x); });
  });
}

double CollateralGame::bob_t1_stop() const {
  // Eq. (39).
  return params_.p_t0 + q_;
}

Action CollateralGame::alice_decision_t1() const {
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

Action CollateralGame::bob_decision_t1() const {
  return bob_t1_cont() > bob_t1_stop() ? Action::kCont : Action::kStop;
}

bool CollateralGame::engaged() const {
  return alice_decision_t1() == Action::kCont &&
         bob_decision_t1() == Action::kCont;
}

// ------------------------------------------------------------ success rate

double CollateralGame::success_rate() const {
  // Eq. (40): Alice's reveal probability over Bob's t2 region.
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_region_, kDepositRule, t3_cutoff_);
  });
}

double CollateralGame::bob_t2_cont_probability() const {
  return region_probability(
      math::GbmLaw(params_.gbm, params_.p_t0, params_.tau_a), t2_region_);
}

// ------------------------------------------------------------- free helpers

CollateralViability collateral_viable_rates(const SwapParams& params,
                                            double collateral, double scan_lo,
                                            double scan_hi, int scan_samples) {
  // Alice's and Bob's gap functions are scanned over the same P* grid, and
  // consecutive evaluations sit close together: one warm-chained, memoizing
  // sweeper solves each (P*, Q) exactly once across both scans.  Each
  // scan's closing gap(scan_lo) is a memo hit (the scan starts there), so
  // the chain of solves is Alice's scan, then Bob's.
  CollateralGameSweeper sweeper(params);
  const auto alice_gap = [&](double p_star) {
    const auto g = sweeper.at(p_star, collateral);
    return g->alice_t1_cont() - g->alice_t1_stop();
  };
  const auto bob_gap = [&](double p_star) {
    const auto g = sweeper.at(p_star, collateral);
    return g->bob_t1_cont() - g->bob_t1_stop();
  };
  CollateralViability v;
  v.alice = positive_set(alice_gap, scan_lo, scan_hi, scan_samples);
  v.bob = positive_set(bob_gap, scan_lo, scan_hi, scan_samples);
  v.both = v.alice.intersect(v.bob);
  return v;
}

}  // namespace swapgame::model
