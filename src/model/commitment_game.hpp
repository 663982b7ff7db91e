// The witness-based atomic commitment game (AC^3TW of Zakhary et al.,
// paper Section II-C) as a protocol-family comparison to the HTLC game.
//
// Under a trusted witness, once BOTH parties have locked, completion is
// enforced: there is no t3 reveal decision for Alice and no t4 claim race
// for Bob -- the entire optionality of the HTLC game collapses into the
// two lock decisions:
//
//   t1: Alice locks P* token-a (cont/stop),
//   t2 = t1 + tau_a: Bob locks 1 token-b (cont/stop),
//   t3 = t2 + tau_b: the witness observes both locks and commits (claims
//        both legs) or, if Bob never locked, stays silent and the time
//        locks refund.
//
// Consequences the bench (X11) verifies against the HTLC game:
//   * Bob's continuation region becomes one-sided: he locks for ALL low
//     prices (no Alice-defection risk) up to a single threshold
//     p_hi = (1 + alpha^B) P* e^{-r^B (tau_b + tau_a)};
//   * the success rate is simply P[P_t2 <= p_hi | initiated], generally
//     HIGHER than the HTLC game's;
//   * Alice LOSES her American option -- her utility can be lower even
//     though completion is more likely.  Protocol choice is a trade-off,
//     not a dominance (the Section V comparative question).
//
// Timeline used (no mempool-visibility step is needed):
//   success: Alice receives at t3 + tau_b, Bob at t3 + tau_a;
//   abort:   expiries t_a = t3 + tau_a, t_b = t3 + tau_b; Alice's refund
//            confirms at t_a + tau_a.
#pragma once

#include "basic_game.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Backward induction for the witness-commitment game.
class CommitmentGame {
 public:
  /// eps_b is unused (no mempool step); other params as in the HTLC game.
  CommitmentGame(const SwapParams& params, double p_star);

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }
  [[nodiscard]] double p_star() const noexcept { return p_star_; }

  // --- t2: Bob's lock decision. ---------------------------------------------
  /// Value of locking: completion is certain once he locks.
  [[nodiscard]] double bob_t2_cont() const;
  [[nodiscard]] double bob_t2_stop(double p_t2) const;  ///< keeps token-b
  /// Bob locks iff P_t2 <= this single threshold (one-sided region).
  [[nodiscard]] double bob_t2_threshold() const noexcept { return bob_hi_; }
  [[nodiscard]] Action bob_decision_t2(double p_t2) const;

  // --- t1: Alice's lock decision. ---------------------------------------------
  [[nodiscard]] double alice_t1_cont() const;
  [[nodiscard]] double alice_t1_stop() const;  ///< P*
  [[nodiscard]] Action alice_decision_t1() const;
  [[nodiscard]] double bob_t1_cont() const;   ///< informational (t0 agreement)
  [[nodiscard]] double bob_t1_stop() const;   ///< P_t0

  // --- Success rate: P[P_t2 <= threshold]. -------------------------------------
  [[nodiscard]] double success_rate() const;

 private:
  SwapParams params_;
  double p_star_;
  double bob_hi_ = 0.0;
};

/// Alice's feasible rate band under the commitment protocol
/// (sign_region.hpp).
[[nodiscard]] FeasibleBand commitment_feasible_band(const SwapParams& params,
                                                    double scan_lo = 0.05,
                                                    double scan_hi = 10.0,
                                                    int scan_samples = 400);

}  // namespace swapgame::model
