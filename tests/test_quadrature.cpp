// Unit tests for adaptive and fixed-order quadrature (src/math/quadrature).
#include "math/quadrature.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace swapgame::math {
namespace {

TEST(Integrate, ExactOnPolynomials) {
  // Simpson is exact on cubics even before adaptation.
  const auto cubic = [](double x) { return 3.0 * x * x * x - x + 2.0; };
  const auto result = integrate(cubic, -1.0, 2.0);
  // antiderivative: 3/4 x^4 - x^2/2 + 2x
  const double expected = (0.75 * 16 - 2.0 + 4.0) - (0.75 - 0.5 - 2.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.value, expected, 1e-12);
}

TEST(Integrate, KnownTranscendentalIntegrals) {
  EXPECT_NEAR(integrate([](double x) { return std::sin(x); }, 0.0, M_PI).value,
              2.0, 1e-10);
  EXPECT_NEAR(integrate([](double x) { return std::exp(-x); }, 0.0, 5.0).value,
              1.0 - std::exp(-5.0), 1e-10);
  EXPECT_NEAR(integrate([](double x) { return 1.0 / x; }, 1.0, M_E).value, 1.0,
              1e-10);
}

TEST(Integrate, EmptyIntervalIsZero) {
  const auto result = integrate([](double) { return 42.0; }, 3.0, 3.0);
  EXPECT_EQ(result.value, 0.0);
  EXPECT_TRUE(result.converged);
}

TEST(Integrate, ReversedBoundsFlipSign) {
  const auto fwd = integrate([](double x) { return x * x; }, 0.0, 2.0);
  const auto rev = integrate([](double x) { return x * x; }, 2.0, 0.0);
  EXPECT_NEAR(fwd.value, -rev.value, 1e-12);
}

TEST(Integrate, RejectsNonFiniteBounds) {
  EXPECT_THROW(
      (void)integrate([](double) { return 0.0; }, 0.0,
                      std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)integrate([](double) { return 0.0; }, std::nan(""), 1.0),
      std::invalid_argument);
}

TEST(Integrate, NarrowSpikeIsCaptured) {
  // A Gaussian spike of width 1e-3 centered mid-interval: the initial
  // uniform panels plus adaptation must find it.
  const double s = 1e-3;
  const auto spike = [s](double x) {
    const double z = (x - 0.5) / s;
    return std::exp(-0.5 * z * z);
  };
  const auto result = integrate(spike, 0.0, 1.0);
  EXPECT_NEAR(result.value, s * std::sqrt(2.0 * M_PI), 1e-9);
}

TEST(Integrate, ReportsEvaluationsAndError) {
  const auto result = integrate([](double x) { return std::sin(x); }, 0.0, 1.0);
  EXPECT_GT(result.evaluations, 0);
  EXPECT_GE(result.error_estimate, 0.0);
  EXPECT_LT(result.error_estimate, 1e-8);
}

TEST(IntegrateToInfinity, GaussianTail) {
  // int_0^inf e^{-x^2/2} dx = sqrt(pi/2)
  const auto result = integrate_to_infinity(
      [](double x) { return std::exp(-0.5 * x * x); }, 0.0);
  EXPECT_NEAR(result.value, std::sqrt(M_PI / 2.0), 1e-8);
}

TEST(IntegrateToInfinity, ShiftedExponential) {
  // int_3^inf e^{-x} dx = e^{-3}
  const auto result =
      integrate_to_infinity([](double x) { return std::exp(-x); }, 3.0);
  EXPECT_NEAR(result.value, std::exp(-3.0), 1e-10);
}

TEST(IntegrateToInfinity, RejectsNonFiniteLowerBound) {
  EXPECT_THROW((void)integrate_to_infinity(
                   [](double) { return 0.0; },
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(GaussLegendre, MatchesAdaptiveOnSmoothIntegrand) {
  const auto f = [](double x) { return std::exp(-x) * std::cos(3.0 * x); };
  const double adaptive = integrate(f, 0.0, 4.0).value;
  EXPECT_NEAR(gauss_legendre(f, 0.0, 4.0, 8), adaptive, 1e-10);
}

TEST(GaussLegendre, ExactOnHighDegreePolynomials) {
  // 15-point GL is exact up to degree 29 per panel.
  const auto poly = [](double x) { return std::pow(x, 13); };
  EXPECT_NEAR(gauss_legendre(poly, 0.0, 1.0, 1), 1.0 / 14.0, 1e-13);
}

TEST(GaussLegendre, ClampsPanelsAndValidatesBounds) {
  EXPECT_NO_THROW(
      (void)gauss_legendre([](double) { return 1.0; }, 0.0, 1.0, 0));
  EXPECT_THROW((void)gauss_legendre([](double) { return 1.0; }, 0.0,
                                    std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

}  // namespace
}  // namespace swapgame::math
