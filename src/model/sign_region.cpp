#include "sign_region.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace swapgame::model {

namespace {

std::vector<double> roots_of(const math::ScalarFn& gap, double lo, double hi,
                             int samples, const std::vector<double>& hints,
                             int verify_samples) {
  if (!hints.empty()) {
    std::optional<std::vector<double>> warm =
        math::find_all_roots_warm(gap, lo, hi, hints, verify_samples);
    if (warm) return std::move(*warm);
  }
  return math::find_all_roots(gap, lo, hi, samples);
}

}  // namespace

ScanWindow ScanWindow::prices(double scale) noexcept {
  const double hi = 10.0 * scale;
  return {.domain_lo = 0.0, .lo = 1e-7 * hi, .hi = hi, .tie = 1e-10 * hi};
}

namespace detail {

SignRegion solve_sign_region(const math::ScalarFn& shifted,
                             const ScanWindow& window, int samples,
                             const std::vector<double>& hints,
                             int verify_samples) {
  SignRegion region;
  region.roots = roots_of(shifted, window.lo, window.hi, samples, hints,
                          verify_samples);
  region.set = math::IntervalSet::from_alternating_roots(
      region.roots, window.domain_lo, window.hi, shifted(window.lo) > 0.0);
  return region;
}

}  // namespace detail

math::IntervalSet positive_set(const math::ScalarFn& gap, double lo,
                               double hi, int samples) {
  return sign_region(gap, {.domain_lo = lo, .lo = lo, .hi = hi}, samples).set;
}

FeasibleBand feasible_band(const math::ScalarFn& gap, double lo, double hi,
                           int samples) {
  const std::vector<double> roots = roots_of(gap, lo, hi, samples, {}, 0);
  if (roots.size() < 2) return {};
  return {.viable = true, .lo = roots.front(), .hi = roots.back()};
}

double region_probability(const math::GbmLaw& law,
                          const math::IntervalSet& region) {
  return std::min(1.0, std::max(0.0, region_mass(law, region, 1e-12)));
}

double region_mass(const math::GbmLaw& law, const math::IntervalSet& region,
                   double floor) {
  return region_sum(region, floor, [&law](double lo, double hi) {
    return std::isinf(hi) ? law.survival(lo) : law.cdf(hi) - law.cdf(lo);
  });
}

double region_success_rate(const SwapParams& params,
                           const math::IntervalSet& region, RegionRule rule,
                           double cutoff) {
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  if (cutoff == 0.0) return region_mass(law_a, region, rule.floor);
  return region_integral(region, rule, [&](double x) {
    const math::GbmLaw law_b(params.gbm, x, params.tau_b);
    return law_a.pdf(x) * law_b.survival(cutoff);
  });
}

}  // namespace swapgame::model
