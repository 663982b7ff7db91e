// The one sign-region solver behind every threshold set of the model, and
// the one loop that integrates over the sets it returns.
//
// Every mechanism is solved by the same backward induction: Bob's t2
// continuation region is the set where U_B(cont) - U_B(stop) > 0, bounded by
// its indifference roots (Eq. 24), and Alice's t1 band is the positive set
// of U_A(cont) - P* (Eqs. 29/30).  The collateral game (Sec. IV, Eqs.
// 35-40), the premium game and the fee game change only the utilities, so
// they all find their regions here:
//   * the gap is root-scanned on a window [lo, hi] (warm-started from the
//     roots of a nearby solve when hints are given, with a cold-scan
//     fallback -- math::find_all_roots_warm);
//   * strict preference: the gap must beat a margin `tie`;
//   * the sorted roots alternate in/out from the sign of the gap at lo, and
//     the set ends at hi (the gap of a t2 solve is negative at +inf, so an
//     unbounded last piece means the scan missed a crossing beyond hi).
// Every mechanism then integrates over Bob's t2 region under the tau_a
// price law from P_t0: Alice's t1 value (Eqs. 25/36), Bob's (Eqs. 26/37)
// and the success rate (Eqs. 31/40).  region_sum is the one loop over the
// region's pieces behind all three, under the family's RegionRule.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/gbm.hpp"
#include "math/interval.hpp"
#include "math/quadrature.hpp"
#include "math/roots.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Alice's feasible exchange-rate band (P*_lo, P*_hi) at t1: the set of
/// rates for which she initiates (Eq. (29) reports (1.5, 2.5) at Table III
/// defaults).  The outermost pair of sign changes of her t1 gap.
struct FeasibleBand {
  bool viable = false;  ///< false when no rate makes Alice initiate
  double lo = 0.0;
  double hi = 0.0;
};

/// Where a gap is scanned and where its positive set is reported.
struct ScanWindow {
  double domain_lo = 0.0;  ///< the set's lower end
  double lo = 0.0;         ///< first scan sample
  double hi = 0.0;         ///< last scan sample; the set ends here
  double tie = 0.0;        ///< margin the gap must beat (strict preference)

  /// The window of every game's t2 solve at price scale `scale`:
  /// hi = 10 * scale, lo = 1e-7 * hi, tie = 1e-10 * hi, the set reported
  /// from 0.  Scale-relative, so the grid resolution and the margin follow
  /// the price scale (scale-invariance tests pin this).  The margin keeps
  /// the degenerate mu == r_B regime, where the gap is identically zero near
  /// 0, from fabricating crossings out of floating-point dither.
  [[nodiscard]] static ScanWindow prices(double scale) noexcept;
};

/// A solved region: the crossings of gap - tie and the set they bound.
struct SignRegion {
  std::vector<double> roots;  ///< sorted roots of gap - tie in [lo, hi]
  math::IntervalSet set;      ///< {p in [domain_lo, hi) : gap(p) > tie}
};

namespace detail {
[[nodiscard]] SignRegion solve_sign_region(const math::ScalarFn& shifted,
                                           const ScanWindow& window,
                                           int samples,
                                           const std::vector<double>& hints,
                                           int verify_samples);
}  // namespace detail

/// Solves the positive set of `gap - window.tie`.  With `hints` (the roots
/// of a nearby solve) each root is re-polished locally and the structure
/// checked on a `verify_samples` grid; on any mismatch, and without hints,
/// the window is scanned cold at `samples` points.  Warm and cold agree to
/// solver tolerance (~1e-12).  The scan runs first, then gap(lo) once.
/// A template so the margin and a game's gap share one type-erased call
/// per evaluation.
template <class Gap>
[[nodiscard]] SignRegion sign_region(const Gap& gap, const ScanWindow& window,
                                     int samples,
                                     const std::vector<double>& hints = {},
                                     int verify_samples = 0) {
  return detail::solve_sign_region(
      [&gap, tie = window.tie](double p) { return gap(p) - tie; }, window,
      samples, hints, verify_samples);
}

/// The positive set of a P* gap on [lo, hi) (no margin): the viable rates
/// of the premium, collateral and negotiation scans.
[[nodiscard]] math::IntervalSet positive_set(const math::ScalarFn& gap,
                                             double lo, double hi,
                                             int samples);

/// The band between the outermost sign changes of a P* gap on [lo, hi];
/// not viable with fewer than two.  Evaluates the gap only in the scan.
[[nodiscard]] FeasibleBand feasible_band(const math::ScalarFn& gap, double lo,
                                         double hi, int samples);

/// P[X in region] under `law`, in closed form (CDF differences; pieces
/// clamped below at 1e-12), clamped to [0, 1].
[[nodiscard]] double region_probability(const math::GbmLaw& law,
                                        const math::IntervalSet& region);

/// How a family integrates over Bob's t2 region: `panels` composite
/// Gauss-Legendre panels per piece, each piece clamped below at `floor`.
struct RegionRule {
  int panels = 0;
  double floor = 0.0;
};

// Each family keeps the rule its outputs were pinned with (docs/MODEL.md
// §10); one rule for all of them would move model outputs.
inline constexpr RegionRule kBasicRule{64, 1e-12};  ///< basic, extended
/// Collateral, premium and uncertain-premium games.
inline constexpr RegionRule kDepositRule{48, 0.0};
inline constexpr RegionRule kEvaluatorRule{48, 1e-12};  ///< StrategyEvaluator

/// Sum of piece(lo, hi) over the region's pieces, each clamped below at
/// `floor`; a piece the clamp leaves empty is skipped.
template <class Piece>
[[nodiscard]] double region_sum(const math::IntervalSet& region, double floor,
                                const Piece& piece) {
  double total = 0.0;
  for (const math::Interval& iv : region.intervals()) {
    const double lo = std::max(iv.lo, floor);
    if (iv.hi > lo) total += piece(lo, iv.hi);
  }
  return total;
}

/// Integral of f over the region under `rule`; every piece must be finite.
template <class F>
[[nodiscard]] double region_integral(const math::IntervalSet& region,
                                     RegionRule rule, const F& f) {
  return region_sum(region, rule.floor, [&](double lo, double hi) {
    return math::gauss_legendre(f, lo, hi, rule.panels);
  });
}

/// P[X in region] under `law` in closed form, pieces clamped below at
/// `floor` (an unbounded piece contributes its survival), not clamped.
[[nodiscard]] double region_mass(const math::GbmLaw& law,
                                 const math::IntervalSet& region,
                                 double floor);

/// Alice's t1 continuation value (Eqs. 25/36): her t2 value `t2_cont(x)`
/// where Bob locks, `t2_stop` elsewhere, over the tau_a price law from P_t0,
/// discounted tau_a at r_A.
template <class T2Value>
[[nodiscard]] double alice_t1_value(const SwapParams& params,
                                    const math::IntervalSet& region,
                                    RegionRule rule, const T2Value& t2_cont,
                                    double t2_stop) {
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  const double inside = region_integral(
      region, rule, [&](double x) { return law.pdf(x) * t2_cont(x); });
  const double outside_prob =
      std::max(0.0, 1.0 - region_mass(law, region, rule.floor));
  return (inside + outside_prob * t2_stop) *
         std::exp(-params.alice.r * params.tau_a);
}

/// Bob's t1 continuation value (Eqs. 26/37): his t2 value `t2_cont(x)`
/// where he locks; elsewhere he keeps the token-b, worth the realized price.
template <class T2Value>
[[nodiscard]] double bob_t1_value(const SwapParams& params,
                                  const math::IntervalSet& region,
                                  RegionRule rule, const T2Value& t2_cont) {
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  const double inside = region_integral(
      region, rule, [&](double x) { return law.pdf(x) * t2_cont(x); });
  const double inside_pe =
      region_sum(region, rule.floor, [&law](double lo, double hi) {
        return law.partial_expectation_below(hi) -
               law.partial_expectation_below(lo);
      });
  const double outside = std::max(0.0, law.expectation() - inside_pe);
  return (inside + outside) * std::exp(-params.bob.r * params.tau_a);
}

/// The success rate (Eqs. 31/40): P[P_t2 in region] weighted by
/// P[P_t3 > cutoff | P_t2].  At cutoff == 0 Alice always reveals and the
/// rate is the region's mass, in closed form.
[[nodiscard]] double region_success_rate(const SwapParams& params,
                                         const math::IntervalSet& region,
                                         RegionRule rule, double cutoff);

}  // namespace swapgame::model
