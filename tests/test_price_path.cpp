// Tests for price paths (src/proto/price_path) and the GBM epoch sampler
// (src/sim/path_simulator).
#include "proto/price_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "math/stats.hpp"
#include "sim/path_simulator.hpp"

namespace swapgame::proto {
namespace {

TEST(ConstantPricePath, AlwaysSamePrice) {
  const ConstantPricePath path(2.5);
  EXPECT_EQ(path.price_at(0.0), 2.5);
  EXPECT_EQ(path.price_at(100.0), 2.5);
  EXPECT_THROW(ConstantPricePath(0.0), std::invalid_argument);
  EXPECT_THROW(ConstantPricePath(-1.0), std::invalid_argument);
}

TEST(SteppedPricePath, HoldsLatestKnot) {
  const SteppedPricePath path({{0.0, 2.0}, {3.0, 2.5}, {7.0, 1.8}});
  EXPECT_EQ(path.price_at(0.0), 2.0);
  EXPECT_EQ(path.price_at(2.999), 2.0);
  EXPECT_EQ(path.price_at(3.0), 2.5);
  EXPECT_EQ(path.price_at(6.5), 2.5);
  EXPECT_EQ(path.price_at(7.0), 1.8);
  EXPECT_EQ(path.price_at(1000.0), 1.8);
}

TEST(SteppedPricePath, ValidatesInput) {
  EXPECT_THROW(SteppedPricePath((std::map<chain::Hours, double>{})),
               std::invalid_argument);
  EXPECT_THROW(SteppedPricePath((std::map<chain::Hours, double>{{0.0, -1.0}})),
               std::invalid_argument);
  const SteppedPricePath path(std::map<chain::Hours, double>{{1.0, 2.0}});
  EXPECT_THROW((void)path.price_at(0.5), std::out_of_range);
}

TEST(SteppedPricePath, FromSortedMatchesTheMapPath) {
  const std::map<chain::Hours, double> knots{
      {0.0, 2.0}, {3.0, 2.5}, {7.0, 1.8}};
  const SteppedPricePath mapped(knots);
  const SteppedPricePath sorted = SteppedPricePath::from_sorted(
      std::vector<SteppedPricePath::Knot>(knots.begin(), knots.end()));
  for (const double t : {0.0, 2.999, 3.0, 6.5, 7.0, 1000.0}) {
    EXPECT_EQ(sorted.price_at(t), mapped.price_at(t));
  }
  EXPECT_THROW((void)SteppedPricePath::from_sorted({}), std::invalid_argument);
  EXPECT_THROW((void)SteppedPricePath::from_sorted({{3.0, 2.0}, {1.0, 2.5}}),
               std::invalid_argument);
  EXPECT_THROW((void)SteppedPricePath::from_sorted({{1.0, 2.0}, {1.0, 2.5}}),
               std::invalid_argument);
  EXPECT_THROW((void)SteppedPricePath::from_sorted({{1.0, 0.0}}),
               std::invalid_argument);
}

TEST(PathSimulator, EpochsAreSortedAndUnique) {
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  const auto epochs = sim::schedule_epochs(schedule);
  // Table III: {0, 3, 7, 8, 11, 14, 15} (t5 = t6 = 11 collapse).
  ASSERT_EQ(epochs.size(), 7u);
  EXPECT_DOUBLE_EQ(epochs.front(), 0.0);
  EXPECT_DOUBLE_EQ(epochs.back(), 15.0);
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    EXPECT_LT(epochs[i - 1], epochs[i]);
  }
}

TEST(PathSimulator, PathStartsAtInitialPrice) {
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  math::Xoshiro256 rng(1);
  const auto path = sim::sample_epoch_path(params, schedule, rng);
  EXPECT_DOUBLE_EQ(path.price_at(0.0), params.p_t0);
  EXPECT_DOUBLE_EQ(path.price_at(2.9), params.p_t0);  // held until t2
}

TEST(PathSimulator, DeterministicPerSeed) {
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  math::Xoshiro256 rng1(42), rng2(42);
  const auto p1 = sim::sample_epoch_path(params, schedule, rng1);
  const auto p2 = sim::sample_epoch_path(params, schedule, rng2);
  for (double t : {0.0, 3.0, 7.0, 8.0, 11.0, 14.0, 15.0}) {
    EXPECT_DOUBLE_EQ(p1.price_at(t), p2.price_at(t)) << "t=" << t;
  }
}

TEST(PathSimulator, PrecomputedEpochsDrawTheSamePath) {
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  const std::vector<chain::Hours> epochs = sim::schedule_epochs(schedule);
  math::Xoshiro256 rng1(42), rng2(42);
  for (int i = 0; i < 3; ++i) {
    const auto p1 = sim::sample_epoch_path(params, schedule, rng1);
    const auto p2 = sim::sample_epoch_path(params, epochs, rng2);
    for (const double t : epochs) EXPECT_EQ(p1.price_at(t), p2.price_at(t));
  }
  EXPECT_EQ(rng1(), rng2());
}

TEST(PathSimulator, TerminalDistributionMatchesGbm) {
  // The sampled price at t2 = 3h must be lognormal with the GBM moments:
  // E[P_t2] = p0 e^{mu tau_a}; log-variance sigma^2 tau_a.
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  math::Xoshiro256 rng(7);
  math::RunningStats level, logret;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto path = sim::sample_epoch_path(params, schedule, rng);
    const double p_t2 = path.price_at(3.0);
    level.add(p_t2);
    logret.add(std::log(p_t2 / params.p_t0));
  }
  EXPECT_NEAR(level.mean(), params.p_t0 * std::exp(params.gbm.mu * 3.0), 0.01);
  EXPECT_NEAR(logret.variance(), params.gbm.sigma * params.gbm.sigma * 3.0,
              0.002);
}

TEST(PathSimulator, IncrementsAreIndependentAcrossEpochs) {
  // Correlation between disjoint log-increments should vanish.
  const auto params = model::SwapParams::table3_defaults();
  const auto schedule = model::idealized_schedule(params, 0.0);
  math::Xoshiro256 rng(17);
  double sum_xy = 0.0, sum_x = 0.0, sum_y = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto path = sim::sample_epoch_path(params, schedule, rng);
    const double x = std::log(path.price_at(3.0) / path.price_at(0.0));
    const double y = std::log(path.price_at(7.0) / path.price_at(3.0));
    sum_xy += x * y;
    sum_x += x;
    sum_y += y;
  }
  const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  EXPECT_NEAR(cov, 0.0, 0.001);
}

}  // namespace
}  // namespace swapgame::proto
