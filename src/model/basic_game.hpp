// Backward induction for the basic HTLC swap game (paper Section III-E).
//
// The solver evaluates both agents' stage utilities at every decision point
// (t4, t3, t2, t1), derives the rational thresholds --
//   * Alice's t3 reveal cutoff  P_t3_lo                    (Eq. 18),
//   * Bob's t2 continuation band (P_t2_lo, P_t2_hi)        (Eq. 24),
//   * Alice's t1 feasible exchange-rate band (P*_lo, P*_hi) (Eqs. 29/30)
// -- and the post-initiation success rate SR(P*) (Eq. 31).
//
// Partial expectations of the lognormal transition law give closed forms
// for the t2 utilities; the t1 utilities and SR integrate t2 quantities
// over the price law by fixed Gauss-Legendre quadrature.  Bob's t2 region
// and Alice's feasible band are found by the model's one sign-region
// solver, and the t1 utilities and SR by its region integrals
// (sign_region.hpp), which every mechanism's game shares.
#pragma once

#include <optional>
#include <vector>

#include "math/cached_value.hpp"
#include "math/interval.hpp"
#include "params.hpp"
#include "sign_region.hpp"

namespace swapgame::model {

/// All backward-induction utilities and thresholds for one (params, P_star)
/// pair.  Immutable after construction; thresholds are computed eagerly.
class BasicGame {
 public:
  /// `t2_root_hints` warm-start the t2 solve in parameter sweeps: the
  /// t2-region roots (see t2_roots()) of a game at nearby parameters.  The
  /// hints only accelerate the root isolation (sign_region.hpp) -- each
  /// hinted root is re-bracketed locally, Brent-polished on this game's own
  /// indifference function, and cross-checked by a coarse verification
  /// scan; on any mismatch, and without hints, the solver runs the full cold
  /// scan.  Warm and cold results agree to solver tolerance (~1e-12).
  /// @throws std::invalid_argument on invalid params or p_star <= 0.
  BasicGame(const SwapParams& params, double p_star,
            const std::vector<double>& t2_root_hints = {});

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }

  // --- t4: Bob's claim decision (Section III-E1). -------------------------
  /// Bob continues with certainty once the secret is visible: claiming
  /// dominates forfeiting the locked token-a.
  [[nodiscard]] Action bob_decision_t4() const noexcept { return Action::kCont; }

  // --- t3: Alice's reveal decision (Eqs. (14)-(19)). ----------------------
  [[nodiscard]] double alice_t3_cont(double p_t3) const;  ///< Eq. (14)
  [[nodiscard]] double alice_t3_stop() const;             ///< Eq. (16)
  [[nodiscard]] double bob_t3_cont() const;               ///< Eq. (15)
  [[nodiscard]] double bob_t3_stop(double p_t3) const;    ///< Eq. (17)
  /// The cutoff price P_t3_lo of Eq. (18): Alice continues iff P_t3 exceeds it.
  [[nodiscard]] double alice_t3_cutoff() const noexcept { return t3_cutoff_; }
  [[nodiscard]] Action alice_decision_t3(double p_t3) const;  ///< Eq. (19)

  // --- t2: Bob's lock decision (Eqs. (20)-(24)). --------------------------
  /// Eq. (20).
  [[nodiscard]] double alice_t2_cont(double p_t2) const {
    return alice_t2_cont(p_t2, t3_cutoff_);
  }
  [[nodiscard]] double alice_t2_stop() const;  ///< Eq. (22)
  /// Eq. (21).
  [[nodiscard]] double bob_t2_cont(double p_t2) const {
    return bob_t2_cont(p_t2, t3_cutoff_);
  }
  /// Eqs. (20)/(21) when Alice reveals iff P_t3 > `cutoff`, any cutoff.
  [[nodiscard]] double alice_t2_cont(double p_t2, double cutoff) const;
  [[nodiscard]] double bob_t2_cont(double p_t2, double cutoff) const;
  [[nodiscard]] double bob_t2_stop(double p_t2) const;    ///< Eq. (23)
  /// Bob's continuation band (P_t2_lo, P_t2_hi) for the paper's standard
  /// regime (two indifference points).  nullopt when the cont region is
  /// empty (alpha^B too small -- Section III-E3 note) OR when it is not a
  /// single interval (possible outside the paper's mu < r regime); the
  /// fully general region is bob_t2_region().
  [[nodiscard]] std::optional<math::Interval> bob_t2_band() const noexcept;
  /// Bob's continuation region in full generality: with mu >= r his refund
  /// branch outgrows his discounting and the region extends down to 0
  /// (single indifference point), a case the paper's Table III defaults
  /// never reach.
  [[nodiscard]] const math::IntervalSet& bob_t2_region() const noexcept {
    return t2_region_;
  }
  /// The sorted indifference roots defining bob_t2_region(); pass them as
  /// the hints of a game at nearby parameters.
  [[nodiscard]] const std::vector<double>& t2_roots() const noexcept {
    return t2_roots_;
  }
  [[nodiscard]] Action bob_decision_t2(double p_t2) const;  ///< Eq. (24)

  // --- t1: Alice's initiation decision (Eqs. (25)-(30)). ------------------
  [[nodiscard]] double alice_t1_cont() const;  ///< Eq. (25)
  [[nodiscard]] double alice_t1_stop() const;  ///< Eq. (27): P_star
  [[nodiscard]] double bob_t1_cont() const;    ///< Eq. (26)
  [[nodiscard]] double bob_t1_stop() const;    ///< Eq. (28): P_t1
  [[nodiscard]] Action alice_decision_t1() const;  ///< Eq. (30)

  // --- Success rate (Section III-F). ---------------------------------------
  /// SR(P_star): probability the swap completes given Alice initiated at t1
  /// (Eq. (31)).  Zero when Bob's t2 band is empty.
  [[nodiscard]] double success_rate() const;

  /// P[P_t2 in Bob's cont region] under the tau_a transition law from P_t0:
  /// the first factor of the Eq. (31) integral, in closed form (lognormal
  /// CDF differences).  This is the analytic mean of the "Bob locked at t2"
  /// indicator, which the variance-reduced Monte-Carlo engine uses as its
  /// control variate (sim/estimators.hpp).
  [[nodiscard]] double bob_t2_cont_probability() const;

 private:
  void compute_t3_cutoff();
  void compute_t2_region(const std::vector<double>& hints);

  SwapParams params_;
  double p_star_;
  double t3_cutoff_ = 0.0;
  math::IntervalSet t2_region_;
  std::vector<double> t2_roots_;
  // Quadrature-backed t1 quantities, integrated once per game instance even
  // when the game is shared across Monte-Carlo samples or sweep threads.
  math::CachedDouble alice_t1_cont_cache_;
  math::CachedDouble bob_t1_cont_cache_;
  math::CachedDouble success_rate_cache_;
};

/// Alice's t3 cutoff (Eq. (34)) when revealing also recovers a deposit
/// worth `recovery` at t3 against a refund worth `refund`: the collateral
/// and premium games' shifted Eq. (18), clamped at 0 (always reveal).
[[nodiscard]] double deposit_t3_cutoff(const SwapParams& params, double refund,
                                       double recovery);

/// Alice's feasible exchange-rate band (FeasibleBand, sign_region.hpp):
/// the sign changes of alice_t1_cont(P*) - P* over [scan_lo, scan_hi].
[[nodiscard]] FeasibleBand alice_feasible_band(const SwapParams& params,
                                               double scan_lo = 0.05,
                                               double scan_hi = 10.0,
                                               int scan_samples = 400);

/// The P_star maximizing SR within the feasible band (Section III-F3 uses
/// "P* chosen optimally"); returns nullopt when the band is empty.
struct OptimalRate {
  double p_star = 0.0;
  double success_rate = 0.0;
};

[[nodiscard]] std::optional<OptimalRate> sr_maximizing_rate(
    const SwapParams& params, int grid = 200);

}  // namespace swapgame::model
