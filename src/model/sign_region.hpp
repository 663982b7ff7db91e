// The one sign-region solver behind every threshold set of the model.
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
#pragma once

#include <vector>

#include "math/gbm.hpp"
#include "math/interval.hpp"
#include "math/roots.hpp"

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

}  // namespace swapgame::model
