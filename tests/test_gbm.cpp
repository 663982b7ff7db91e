// Unit and property tests for the GBM transition law (src/math/gbm),
// including cross-checks of every closed form against adaptive quadrature.
#include "math/gbm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "math/quadrature.hpp"

namespace swapgame::math {
namespace {

GbmParams paper_params() { return {0.002, 0.1}; }  // Table III

TEST(GbmParams, ValidationRejectsBadValues) {
  EXPECT_NO_THROW(paper_params().validate());
  EXPECT_THROW((GbmParams{0.0, 0.0}.validate()), std::invalid_argument);
  EXPECT_THROW((GbmParams{0.0, -0.1}.validate()), std::invalid_argument);
  EXPECT_THROW((GbmParams{std::nan(""), 0.1}.validate()), std::invalid_argument);
  EXPECT_THROW((GbmParams{0.0, std::nan("")}.validate()), std::invalid_argument);
}

TEST(GbmLaw, ConstructorRejectsBadInputs) {
  EXPECT_THROW(GbmLaw(paper_params(), 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GbmLaw(paper_params(), -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GbmLaw(paper_params(), 2.0, 0.0), std::invalid_argument);
  EXPECT_THROW(GbmLaw(paper_params(), 2.0, -4.0), std::invalid_argument);
}

TEST(GbmLaw, ExpectationIsExponentialGrowth) {
  // Paper: E(P_t, tau) = P_t e^{mu tau}.
  const GbmLaw law(paper_params(), 2.0, 4.0);
  EXPECT_NEAR(law.expectation(), 2.0 * std::exp(0.002 * 4.0), 1e-14);
}

TEST(GbmLaw, PdfIntegratesToOne) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  const auto result = integrate_to_infinity(
      [&law](double x) { return law.pdf(x); }, 1e-12);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.value, 1.0, 1e-8);
}

TEST(GbmLaw, CdfMatchesIntegratedPdf) {
  const GbmLaw law(paper_params(), 2.0, 3.0);
  for (double x : {0.5, 1.0, 1.5, 2.0, 2.5, 4.0}) {
    const auto result =
        integrate([&law](double t) { return law.pdf(t); }, 1e-12, x);
    EXPECT_NEAR(result.value, law.cdf(x), 1e-9) << "x=" << x;
  }
}

TEST(GbmLaw, CdfLimitsAndMonotonicity) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  EXPECT_EQ(law.cdf(0.0), 0.0);
  EXPECT_EQ(law.cdf(-1.0), 0.0);
  EXPECT_NEAR(law.cdf(1e9), 1.0, 1e-12);
  double prev = -1.0;
  for (double x = 0.1; x < 10.0; x += 0.1) {
    const double c = law.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(GbmLaw, SurvivalComplementsCdf) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  for (double x : {0.3, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(law.cdf(x) + law.survival(x), 1.0, 1e-14);
  }
}

TEST(GbmLaw, QuantileRoundTrips) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  for (double p : {0.001, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(law.cdf(law.quantile(p)), p, 1e-12) << "p=" << p;
  }
  EXPECT_EQ(law.quantile(0.0), 0.0);
  EXPECT_TRUE(std::isinf(law.quantile(1.0)));
  EXPECT_THROW((void)law.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)law.quantile(1.0001), std::invalid_argument);
}

TEST(GbmLaw, MedianIsLogMeanExp) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  EXPECT_NEAR(law.quantile(0.5), std::exp(law.log_mean()), 1e-12);
}

TEST(GbmLaw, PartialExpectationsSumToExpectation) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  for (double L : {0.2, 1.0, 1.5, 2.0, 3.0, 8.0}) {
    EXPECT_NEAR(law.partial_expectation_below(L) +
                    law.partial_expectation_above(L),
                law.expectation(), 1e-12)
        << "L=" << L;
  }
}

TEST(GbmLaw, PartialExpectationBelowMatchesQuadrature) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  for (double L : {0.8, 1.481, 2.0, 3.5}) {
    const auto result =
        integrate([&law](double x) { return x * law.pdf(x); }, 1e-12, L);
    EXPECT_NEAR(result.value, law.partial_expectation_below(L), 1e-8)
        << "L=" << L;
  }
}

TEST(GbmLaw, PartialExpectationEdgeCases) {
  const GbmLaw law(paper_params(), 2.0, 4.0);
  EXPECT_EQ(law.partial_expectation_below(0.0), 0.0);
  EXPECT_EQ(law.partial_expectation_below(-1.0), 0.0);
  EXPECT_NEAR(law.partial_expectation_below(
                  std::numeric_limits<double>::infinity()),
              law.expectation(), 1e-14);
  EXPECT_NEAR(law.partial_expectation_above(0.0), law.expectation(), 1e-14);
  EXPECT_EQ(law.partial_expectation_above(
                std::numeric_limits<double>::infinity()),
            0.0);
}

TEST(GbmLaw, SampleFromNormalHitsQuantiles) {
  // The exact-sampling map must agree with the quantile function:
  // sample(z) = quantile(Phi(z)).
  const GbmLaw law(paper_params(), 2.0, 4.0);
  for (double z : {-2.0, -0.5, 0.0, 0.5, 2.0}) {
    const double p = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(law.sample_from_normal(z), law.quantile(p), 1e-9);
  }
}

// Property sweep: the lognormal mean identity E[X] = P e^{mu tau} must hold
// across a parameter grid (integral evaluated by quadrature).
struct GbmCase {
  double mu;
  double sigma;
  double price;
  double tau;
};

class GbmPropertyTest : public ::testing::TestWithParam<GbmCase> {};

TEST_P(GbmPropertyTest, QuadratureMeanMatchesClosedForm) {
  const GbmCase c = GetParam();
  const GbmLaw law(GbmParams{c.mu, c.sigma}, c.price, c.tau);
  const auto result = integrate_to_infinity(
      [&law](double x) { return x * law.pdf(x); }, 1e-12);
  EXPECT_NEAR(result.value / law.expectation(), 1.0, 1e-6);
}

TEST_P(GbmPropertyTest, PartialExpectationConsistency) {
  const GbmCase c = GetParam();
  const GbmLaw law(GbmParams{c.mu, c.sigma}, c.price, c.tau);
  const double L = law.quantile(0.37);
  EXPECT_NEAR(law.partial_expectation_below(L) +
                  law.partial_expectation_above(L),
              law.expectation(), 1e-10 * law.expectation());
  // Below-part must be below the full mean, above-part positive.
  EXPECT_LT(law.partial_expectation_below(L), law.expectation());
  EXPECT_GT(law.partial_expectation_above(L), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, GbmPropertyTest,
    ::testing::Values(GbmCase{0.002, 0.1, 2.0, 4.0},   // Table III
                      GbmCase{0.0, 0.1, 2.0, 3.0},     // zero drift
                      GbmCase{-0.004, 0.1, 2.0, 4.0},  // inflationary token
                      GbmCase{0.002, 0.05, 2.0, 4.0},  // low vol
                      GbmCase{0.002, 0.2, 2.0, 4.0},   // high vol
                      GbmCase{0.01, 0.3, 0.5, 1.0},    // small price
                      GbmCase{0.002, 0.1, 100.0, 24.0}));

}  // namespace
}  // namespace swapgame::math
