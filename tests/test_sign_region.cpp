// Tests for the model's shared sign-region solver (src/model/sign_region)
// on synthetic gaps with known roots.
#include "model/sign_region.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "math/gbm.hpp"

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

}  // namespace
}  // namespace swapgame::model
