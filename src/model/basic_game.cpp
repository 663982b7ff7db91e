#include "basic_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/gbm.hpp"
#include "solver_cache.hpp"
#include "timeline.hpp"

namespace swapgame::model {

namespace {

// Scan resolution for Bob's t2 indifference roots.  The cont/stop utility
// gap is smooth with at most two transversal zeros, so a moderately fine
// grid plus Brent polishing is ample.
constexpr int kBandScanSamples = 2048;

// Verification resolution for warm-started solves: coarse enough to be
// cheap, fine enough that a structural change between neighbouring sweep
// points (a crossing appearing or vanishing) is detected and triggers the
// cold-scan fallback.
constexpr int kWarmVerifySamples = 257;

}  // namespace

BasicGame::BasicGame(const SwapParams& params, double p_star,
                     const std::vector<double>& t2_root_hints)
    : params_(params), p_star_(p_star) {
  params_.validate();
  if (!(p_star > 0.0) || !std::isfinite(p_star)) {
    throw std::invalid_argument("BasicGame: p_star must be positive and finite");
  }
  compute_t3_cutoff();
  compute_t2_region(t2_root_hints);
}

// ---------------------------------------------------------------- t3 stage

double BasicGame::alice_t3_cont(double p_t3) const {
  // Eq. (14): (1 + alpha^A) * E(P_t3, tau_b) * e^{-r^A tau_b}; Alice gets
  // the token-b at t5 = t3 + tau_b.
  const double mu = params_.gbm.mu;
  return (1.0 + params_.alice.alpha) * p_t3 *
         std::exp((mu - params_.alice.r) * params_.tau_b);
}

double BasicGame::alice_t3_stop() const {
  // Eq. (16): token-a refunded at t8 = t3 + eps_b + 2 tau_a.
  return p_star_ *
         std::exp(-params_.alice.r * (params_.eps_b + 2.0 * params_.tau_a));
}

double BasicGame::bob_t3_cont() const {
  // Eq. (15): Bob receives P_star token-a at t6 = t3 + eps_b + tau_a.
  return (1.0 + params_.bob.alpha) * p_star_ *
         std::exp(-params_.bob.r * (params_.eps_b + params_.tau_a));
}

double BasicGame::bob_t3_stop(double p_t3) const {
  // Eq. (17): Bob's token-b refunded at t7 = t3 + 2 tau_b.
  return p_t3 * std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b);
}

void BasicGame::compute_t3_cutoff() {
  // Eq. (18).
  const double rA = params_.alice.r;
  const double mu = params_.gbm.mu;
  t3_cutoff_ = std::exp((rA - mu) * params_.tau_b -
                        rA * (params_.eps_b + 2.0 * params_.tau_a)) *
               p_star_ / (1.0 + params_.alice.alpha);
}

double deposit_t3_cutoff(const SwapParams& params, double refund,
                         double recovery) {
  // Eq. (34): clamped at zero when the recovery alone exceeds the refund
  // value (Alice then reveals at any price).
  const double shifted = refund - recovery;
  return shifted <= 0.0 ? 0.0
                        : std::exp((params.alice.r - params.gbm.mu) *
                                   params.tau_b) *
                              shifted / (1.0 + params.alice.alpha);
}

Action BasicGame::alice_decision_t3(double p_t3) const {
  // Eq. (19): cont iff P_t3 > cutoff.
  return p_t3 > t3_cutoff_ ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t2 stage

double BasicGame::alice_t2_cont(double p_t2, double cutoff) const {
  // Eq. (20): expectation of Alice's t3 value over the price law, then
  // discounted one tau_b.  alice_t3_cont(x) is linear in x, so its integral
  // against the density over (cutoff, inf) reduces to the upper partial
  // expectation E[X 1{X > cutoff}] (closed form).
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double cont_part =
      (1.0 + params_.alice.alpha) *
      std::exp((params_.gbm.mu - params_.alice.r) * params_.tau_b) *
      law.partial_expectation_above(cutoff);
  const double stop_part = law.cdf(cutoff) * alice_t3_stop();
  return (cont_part + stop_part) * std::exp(-params_.alice.r * params_.tau_b);
}

double BasicGame::alice_t2_stop() const {
  // Eq. (22): refund at t8 = t2 + tau_b + eps_b + 2 tau_a.
  return p_star_ * std::exp(-params_.alice.r *
                            (params_.tau_b + params_.eps_b + 2.0 * params_.tau_a));
}

double BasicGame::bob_t2_cont(double p_t2, double cutoff) const {
  // Eq. (21): with probability 1 - C(cutoff) Alice reveals and Bob gets
  // bob_t3_cont(); otherwise Bob is refunded, worth bob_t3_stop(x) at the
  // realized price x -- the integral of x pdf(x) over (0, cutoff) is the
  // lower partial expectation.
  const math::GbmLaw law(params_.gbm, p_t2, params_.tau_b);
  const double cont_part = law.survival(cutoff) * bob_t3_cont();
  const double stop_part =
      std::exp((params_.gbm.mu - params_.bob.r) * 2.0 * params_.tau_b) *
      law.partial_expectation_below(cutoff);
  return (cont_part + stop_part) * std::exp(-params_.bob.r * params_.tau_b);
}

double BasicGame::bob_t2_stop(double p_t2) const {
  // Eq. (23): Bob keeps his token-b, worth P_t2 now.
  return p_t2;
}

void BasicGame::compute_t2_region(const std::vector<double>& hints) {
  // Roots of g(p) = bob_t2_cont(p) - p.  In the paper's mu < r regime g < 0
  // both as p -> 0 (token-b worthless, but Alice will not reveal either)
  // and as p -> inf (Bob keeps the valuable token-b), so the cont region
  // lies between two roots (Section III-E3).  With mu >= r Bob's refund
  // branch outgrows his discounting and g > 0 near 0: the region extends
  // down to zero with a single indifference point.  The alternating-root
  // construction (sign_region.hpp) handles both.
  SignRegion solved = sign_region(
      [this](double p) { return bob_t2_cont(p) - bob_t2_stop(p); },
      ScanWindow::prices(std::max({p_star_, params_.p_t0, t3_cutoff_})),
      kBandScanSamples, hints, kWarmVerifySamples);
  t2_roots_ = std::move(solved.roots);
  t2_region_ = std::move(solved.set);
}

std::optional<math::Interval> BasicGame::bob_t2_band() const noexcept {
  if (t2_region_.size() != 1) return std::nullopt;
  return t2_region_.intervals().front();
}

Action BasicGame::bob_decision_t2(double p_t2) const {
  // Eq. (24).
  return t2_region_.contains(p_t2) ? Action::kCont : Action::kStop;
}

// ---------------------------------------------------------------- t1 stage

double BasicGame::alice_t1_cont() const {
  // Eq. (25): Alice's t2 value over the tau_a price law (sign_region.hpp).
  return alice_t1_cont_cache_.get([this] {
    return alice_t1_value(
        params_, t2_region_, kBasicRule,
        [this](double x) { return alice_t2_cont(x); }, alice_t2_stop());
  });
}

double BasicGame::alice_t1_stop() const {
  // Eq. (27): Alice keeps her P_star token-a.
  return p_star_;
}

double BasicGame::bob_t1_cont() const {
  // Eq. (26).
  return bob_t1_cont_cache_.get([this] {
    return bob_t1_value(params_, t2_region_, kBasicRule,
                        [this](double x) { return bob_t2_cont(x); });
  });
}

double BasicGame::bob_t1_stop() const {
  // Eq. (28): Bob keeps his 1 token-b, worth P_t1 = P_t0.
  return params_.p_t0;
}

Action BasicGame::alice_decision_t1() const {
  // Eq. (30): initiate iff continuation beats keeping the token-a.
  return alice_t1_cont() > alice_t1_stop() ? Action::kCont : Action::kStop;
}

// ------------------------------------------------------------ success rate

double BasicGame::success_rate() const {
  // Eq. (31).
  return success_rate_cache_.get([this] {
    return region_success_rate(params_, t2_region_, kBasicRule, t3_cutoff_);
  });
}

double BasicGame::bob_t2_cont_probability() const {
  return region_probability(
      math::GbmLaw(params_.gbm, params_.p_t0, params_.tau_a), t2_region_);
}

// ------------------------------------------------------------- free helpers

FeasibleBand alice_feasible_band(const SwapParams& params, double scan_lo,
                                 double scan_hi, int scan_samples) {
  params.validate();
  // The scan evaluates the gap at closely spaced P* values; chain each
  // game's t2 roots into the next construction as warm-start hints so the
  // inner region solve skips the full cold scan at almost every point.
  std::vector<double> last_roots;
  const auto gap = [&params, &last_roots](double p_star) {
    const BasicGame game(params, p_star, last_roots);
    last_roots = game.t2_roots();
    return game.alice_t1_cont() - game.alice_t1_stop();
  };
  return feasible_band(gap, scan_lo, scan_hi, scan_samples);
}

std::optional<OptimalRate> sr_maximizing_rate(const SwapParams& params,
                                              int grid) {
  const FeasibleBand band = cached_feasible_band(params);
  if (!band.viable || grid < 2) return std::nullopt;
  OptimalRate best;
  bool found = false;
  std::vector<double> last_roots;
  for (int i = 0; i <= grid; ++i) {
    const double p_star =
        band.lo + (band.hi - band.lo) * static_cast<double>(i) / grid;
    if (!(p_star > 0.0)) continue;
    const BasicGame game(params, p_star, last_roots);
    last_roots = game.t2_roots();
    const double sr = game.success_rate();
    if (!found || sr > best.success_rate) {
      best = {p_star, sr};
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return best;
}

}  // namespace swapgame::model
