// Tests for the model's shared sign-region solver (src/model/sign_region)
// on synthetic gaps with known roots, and for the region integrals built
// on its one loop over a region's pieces.
#include "model/sign_region.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "math/gbm.hpp"
#include "model/params.hpp"

namespace swapgame::model {
namespace {

// The t2 window at scale 1: scan [1e-6, 10], margin 1e-9, set from 0.
const ScanWindow kWindow = ScanWindow::prices(1.0);

double band_gap(double p) { return (p - 1.0) * (3.0 - p); }

TEST(SignRegion, PricesWindowIsScaleRelative) {
  const ScanWindow w = ScanWindow::prices(2.5);
  EXPECT_EQ(w.domain_lo, 0.0);
  EXPECT_EQ(w.hi, 25.0);
  EXPECT_EQ(w.lo, 1e-7 * 25.0);
  EXPECT_EQ(w.tie, 1e-10 * 25.0);
}

TEST(SignRegion, TwoRootBand) {
  const SignRegion r = sign_region(band_gap, kWindow, 2048);
  ASSERT_EQ(r.roots.size(), 2u);
  EXPECT_NEAR(r.roots[0], 1.0, 1e-8);
  EXPECT_NEAR(r.roots[1], 3.0, 1e-8);
  ASSERT_EQ(r.set.size(), 1u);
  EXPECT_EQ(r.set.intervals()[0].lo, r.roots[0]);
  EXPECT_EQ(r.set.intervals()[0].hi, r.roots[1]);
}

TEST(SignRegion, RegionThatStartsInsideAtZero) {
  const SignRegion r =
      sign_region([](double p) { return 2.0 - p; }, kWindow, 2048);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_NEAR(r.roots[0], 2.0, 1e-8);
  ASSERT_EQ(r.set.size(), 1u);
  EXPECT_EQ(r.set.intervals()[0].lo, 0.0);
  EXPECT_EQ(r.set.intervals()[0].hi, r.roots[0]);
}

TEST(SignRegion, ThreeRoots) {
  // Positive below 1 and between 2 and 4 (the collateral game's shape).
  const SignRegion r = sign_region(
      [](double p) { return (1.0 - p) * (p - 2.0) * (p - 4.0); }, kWindow,
      4096);
  ASSERT_EQ(r.roots.size(), 3u);
  EXPECT_NEAR(r.roots[0], 1.0, 1e-8);
  EXPECT_NEAR(r.roots[1], 2.0, 1e-8);
  EXPECT_NEAR(r.roots[2], 4.0, 1e-8);
  ASSERT_EQ(r.set.size(), 2u);
  EXPECT_EQ(r.set.intervals()[0].lo, 0.0);
  EXPECT_EQ(r.set.intervals()[0].hi, r.roots[0]);
  EXPECT_EQ(r.set.intervals()[1].lo, r.roots[1]);
  EXPECT_EQ(r.set.intervals()[1].hi, r.roots[2]);
}

TEST(SignRegion, MarginSuppressesDitherOfAZeroGap) {
  // Identically zero below 1 up to floating-point dither of a few ulps,
  // then the two-root band: the regime mu == r_B gives Bob's t2 gap.
  const auto gap = [](double p) {
    return p < 1.0 ? std::exp(std::log(p)) - p : band_gap(p);
  };
  // Without a margin the dither fabricates crossings below 1 ...
  const ScanWindow bare{.domain_lo = 0.0, .lo = kWindow.lo, .hi = kWindow.hi};
  EXPECT_GT(sign_region(gap, bare, 2048).roots.size(), 2u);
  // ... with it the region is the band alone.
  const SignRegion r = sign_region(gap, kWindow, 2048);
  ASSERT_EQ(r.roots.size(), 2u);
  EXPECT_NEAR(r.roots[0], 1.0, 1e-8);
  EXPECT_NEAR(r.roots[1], 3.0, 1e-8);
  ASSERT_EQ(r.set.size(), 1u);
  EXPECT_GT(r.set.intervals()[0].lo, 1.0);
}

TEST(SignRegion, GapStillPositiveAtScanHiEndsThere) {
  const SignRegion r =
      sign_region([](double p) { return p - 1.0; }, kWindow, 2048);
  ASSERT_EQ(r.roots.size(), 1u);
  ASSERT_EQ(r.set.size(), 1u);
  EXPECT_NEAR(r.set.intervals()[0].lo, 1.0, 1e-8);
  EXPECT_EQ(r.set.intervals()[0].hi, kWindow.hi);
}

/// Solves the band gap from `hints`, counting gap evaluations.
SignRegion warm_solve(const std::vector<double>& hints, int* evaluations) {
  *evaluations = 0;
  return sign_region(
      [evaluations](double p) {
        ++*evaluations;
        return band_gap(p);
      },
      kWindow, 2048, hints, 257);
}

TEST(SignRegion, WarmHintsMatchTheColdScan) {
  const SignRegion cold = sign_region(band_gap, kWindow, 2048);
  int evaluations = 0;

  // Right hints: accepted without a cold scan.
  const SignRegion right = warm_solve(cold.roots, &evaluations);
  EXPECT_LT(evaluations, 2048);
  ASSERT_EQ(right.roots.size(), 2u);
  EXPECT_NEAR(right.roots[0], cold.roots[0], 1e-12);
  EXPECT_NEAR(right.roots[1], cold.roots[1], 1e-12);
  EXPECT_TRUE(right.set.equals(cold.set, 1e-12));

  // Shifted hints: re-bracketed and polished onto the same roots.
  const SignRegion shifted = warm_solve({1.05, 2.9}, &evaluations);
  ASSERT_EQ(shifted.roots.size(), 2u);
  EXPECT_NEAR(shifted.roots[0], cold.roots[0], 1e-12);
  EXPECT_NEAR(shifted.roots[1], cold.roots[1], 1e-12);
  EXPECT_TRUE(shifted.set.equals(cold.set, 1e-12));

  // A missing root: the verification scan sees an unexplained crossing and
  // falls back to the cold scan.
  const SignRegion missing = warm_solve({cold.roots[0]}, &evaluations);
  EXPECT_GT(evaluations, 2048);
  EXPECT_EQ(missing.roots, cold.roots);
  EXPECT_EQ(missing.set, cold.set);

  // A hint outside the window falls back too.
  const SignRegion outside = warm_solve({1.0, 30.0}, &evaluations);
  EXPECT_EQ(outside.roots, cold.roots);
}

TEST(PositiveSet, StartsAtTheScanWindow) {
  const math::IntervalSet s =
      positive_set([](double p) { return 2.0 - p; }, 0.5, 10.0, 400);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0].lo, 0.5);
  EXPECT_NEAR(s.intervals()[0].hi, 2.0, 1e-10);
  EXPECT_TRUE(positive_set([](double) { return -1.0; }, 0.5, 10.0, 400)
                  .empty());
}

TEST(FeasibleBand, OutermostSignChanges) {
  const FeasibleBand band = feasible_band(band_gap, 0.05, 10.0, 400);
  EXPECT_TRUE(band.viable);
  EXPECT_NEAR(band.lo, 1.0, 1e-10);
  EXPECT_NEAR(band.hi, 3.0, 1e-10);
  const FeasibleBand one_root =
      feasible_band([](double p) { return 2.0 - p; }, 0.05, 10.0, 400);
  EXPECT_FALSE(one_root.viable);
}

TEST(RegionProbability, ClosedFormOverPieces) {
  const math::GbmLaw law(math::GbmParams{}, 2.0, 3.0);
  EXPECT_EQ(region_probability(law, math::IntervalSet()), 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(region_probability(law, math::IntervalSet({{0.0, inf}})), 1.0,
              1e-12);
  const math::IntervalSet two({{1.0, 1.5}, {2.0, 2.5}});
  EXPECT_NEAR(region_probability(law, two),
              law.cdf(1.5) - law.cdf(1.0) + law.cdf(2.5) - law.cdf(2.0),
              1e-15);
}

TEST(RegionSuccessRate, CutoffZeroIsTheClosedFormMass) {
  const SwapParams params = SwapParams::table3_defaults();
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  const math::IntervalSet two({{1.0, 1.5}, {2.0, 2.5}});
  const double mass =
      (law.cdf(1.5) - law.cdf(1.0)) + (law.cdf(2.5) - law.cdf(2.0));
  for (const RegionRule rule : {kBasicRule, kDepositRule, kEvaluatorRule}) {
    EXPECT_EQ(region_success_rate(params, two, rule, 0.0), mass);
  }
  // A cutoff far below every price reveals surely: the quadrature of the
  // density agrees with the closed form.
  EXPECT_NEAR(region_success_rate(params, two, kBasicRule, 1e-300), mass,
              1e-12);
}

TEST(T1Values, EmptyRegionIsTheStopValue) {
  const SwapParams params = SwapParams::table3_defaults();
  const math::GbmLaw law(params.gbm, params.p_t0, params.tau_a);
  const auto never = [](double) {
    ADD_FAILURE() << "integrand evaluated over an empty region";
    return 0.0;
  };
  const double t2_stop = 1.7;
  EXPECT_EQ(alice_t1_value(params, {}, kBasicRule, never, t2_stop),
            t2_stop * std::exp(-params.alice.r * params.tau_a));
  EXPECT_EQ(bob_t1_value(params, {}, kDepositRule, never),
            law.expectation() * std::exp(-params.bob.r * params.tau_a));
  EXPECT_EQ(region_success_rate(params, {}, kBasicRule, 1.5), 0.0);
}

TEST(RegionIntegral, PieceBelowTheFloorContributesNothing) {
  const SwapParams params = SwapParams::table3_defaults();
  const math::IntervalSet band({{1.5, 2.5}});
  const math::IntervalSet with_dust({{1e-14, 5e-13}, {1.5, 2.5}});
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return x * x;
  };
  const double expected = region_integral(band, kBasicRule, f);
  const int band_calls = calls;
  EXPECT_EQ(region_integral(with_dust, kBasicRule, f), expected);
  EXPECT_EQ(calls, 2 * band_calls);
  EXPECT_NEAR(expected, (2.5 * 2.5 * 2.5 - 1.5 * 1.5 * 1.5) / 3.0, 1e-12);
  const auto t2 = [](double x) { return 0.9 * x; };
  EXPECT_EQ(alice_t1_value(params, with_dust, kBasicRule, t2, 1.7),
            alice_t1_value(params, band, kBasicRule, t2, 1.7));
  EXPECT_EQ(bob_t1_value(params, with_dust, kBasicRule, t2),
            bob_t1_value(params, band, kBasicRule, t2));
  EXPECT_EQ(region_success_rate(params, with_dust, kBasicRule, 1.5),
            region_success_rate(params, band, kBasicRule, 1.5));
  // Without a floor the same piece is integrated.
  const auto one = [](double) { return 1.0; };
  EXPECT_GT(region_integral(with_dust, kDepositRule, one),
            region_integral(band, kDepositRule, one));
}

}  // namespace
}  // namespace swapgame::model
