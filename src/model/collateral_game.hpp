// The HTLC game with collateral deposits (paper Section IV).
//
// Both agents post the same collateral Q (in token-a) into an
// oracle-controlled vault on Chain_a before the swap.  The Oracle returns
// collateral to an agent once it can no longer misbehave (Bob at t3, Alice
// at t4) and forfeits a stopping agent's collateral to the counterparty.
//
// The game structure changes in two ways relative to the basic game:
//  * Alice's t3 cutoff drops (Eq. (33)/(34)) -- possibly to zero, where she
//    always reveals;
//  * Bob's t2 continuation region becomes an odd-root interval set
//    (1 or 3 indifference points -- Fig. 7): for very low prices Bob
//    continues *to recover his collateral* even though the swap is likely
//    to fail at t3.  It is solved by the model's one sign-region routine
//    (sign_region.hpp), like every other game's.
//
// At t1 both agents decide simultaneously; the rate is viable only if each
// agent's cont utility beats stop (the paper prints the union of the two
// viability sets in Section IV-4, but initiation logically requires both --
// we expose both sets and use the intersection; see DESIGN.md).
#pragma once

#include <optional>
#include <vector>

#include "basic_game.hpp"
#include "math/cached_value.hpp"
#include "math/interval.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Backward induction for the collateralized game at one (params, P_star, Q).
class CollateralGame {
 public:
  /// The hints warm-start the t2 solves in parameter sweeps: the t2-region
  /// roots of the embedded basic game and of this game at nearby parameters
  /// (see t2_roots()).  Hints only accelerate root isolation
  /// (sign_region.hpp) -- every hinted root is re-polished on this game's own
  /// indifference function and structurally verified, with a cold-scan
  /// fallback -- so results agree with a cold solve to solver tolerance
  /// (~1e-12).
  /// @throws std::invalid_argument on invalid params, p_star <= 0 or Q < 0.
  CollateralGame(const SwapParams& params, double p_star, double collateral,
                 const std::vector<double>& basic_t2_root_hints = {},
                 const std::vector<double>& t2_root_hints = {});

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }
  [[nodiscard]] double collateral() const noexcept { return q_; }

  /// The embedded basic game (Q = 0 reference; also supplies the unchanged
  /// stage utilities Eq. (16), (23)).
  [[nodiscard]] const BasicGame& basic() const noexcept { return basic_; }

  // --- t3: Alice's reveal decision (Eqs. (33)/(34)). -----------------------
  /// Alice's cont utility including her collateral recovery at t4 + tau_a.
  [[nodiscard]] double alice_t3_cont(double p_t3) const;
  /// Stop forfeits the collateral: same as the basic game's Eq. (16).
  [[nodiscard]] double alice_t3_stop() const;
  /// The clamped cutoff P_t3_lo_c of Eq. (34); 0 means "always reveal".
  [[nodiscard]] double alice_t3_cutoff() const noexcept { return t3_cutoff_; }
  [[nodiscard]] Action alice_decision_t3(double p_t3) const;

  // --- t2: Bob's lock decision (Eqs. (35), (23)). --------------------------
  [[nodiscard]] double alice_t2_cont(double p_t2) const;  ///< Eq. (36)'s inner value
  [[nodiscard]] double bob_t2_cont(double p_t2) const;    ///< Eq. (35)
  [[nodiscard]] double bob_t2_stop(double p_t2) const;    ///< Eq. (23): keeps token-b
  /// Bob's continuation region, a union of at most two intervals
  /// (odd number of indifference points; Fig. 7).
  [[nodiscard]] const math::IntervalSet& bob_t2_region() const noexcept {
    return t2_region_;
  }
  /// The sorted indifference roots defining bob_t2_region(); pass them as
  /// the hints of a game at nearby parameters.
  [[nodiscard]] const std::vector<double>& t2_roots() const noexcept {
    return t2_roots_;
  }
  [[nodiscard]] Action bob_decision_t2(double p_t2) const;

  // --- t1: simultaneous engagement decision (Eqs. (36)-(39)). --------------
  [[nodiscard]] double alice_t1_cont() const;  ///< Eq. (36)
  [[nodiscard]] double alice_t1_stop() const;  ///< Eq. (38): P_star + Q
  [[nodiscard]] double bob_t1_cont() const;    ///< Eq. (37)
  [[nodiscard]] double bob_t1_stop() const;    ///< Eq. (39): P_t1 + Q
  [[nodiscard]] Action alice_decision_t1() const;
  [[nodiscard]] Action bob_decision_t1() const;
  /// Whether both agents engage at this rate (the swap actually starts).
  [[nodiscard]] bool engaged() const;

  // --- Success rate (Eq. (40)). --------------------------------------------
  [[nodiscard]] double success_rate() const;

  /// P[P_t2 in Bob's cont region] under the tau_a law from P_t0 -- the
  /// analytic control-variate mean for the VR Monte-Carlo engine, exactly
  /// as BasicGame::bob_t2_cont_probability but over the collateralized
  /// (odd-root interval set) region.
  [[nodiscard]] double bob_t2_cont_probability() const;

 private:
  void compute_t2_region(const std::vector<double>& hints);

  SwapParams params_;
  double p_star_;
  double q_;
  BasicGame basic_;
  double t3_cutoff_ = 0.0;
  math::IntervalSet t2_region_;
  std::vector<double> t2_roots_;
  // Quadrature-backed t1 quantities, integrated once per game instance even
  // when the game is shared across Monte-Carlo samples or sweep threads.
  math::CachedDouble alice_t1_cont_cache_;
  math::CachedDouble bob_t1_cont_cache_;
  math::CachedDouble success_rate_cache_;
};

/// Viable exchange-rate sets at t1 for a given collateral: the set of P*
/// where each agent prefers cont, and their intersection (rates at which
/// the swap is actually initiated).
struct CollateralViability {
  math::IntervalSet alice;  ///< {P* : U^A_t1,c(cont) > P* + Q}
  math::IntervalSet bob;    ///< {P* : U^B_t1,c(cont) > P_t1 + Q}
  math::IntervalSet both;   ///< intersection
};

[[nodiscard]] CollateralViability collateral_viable_rates(
    const SwapParams& params, double collateral, double scan_lo = 0.05,
    double scan_hi = 10.0, int scan_samples = 400);

}  // namespace swapgame::model
