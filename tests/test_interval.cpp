// Unit tests for the disjoint-interval set algebra (src/math/interval).
#include "math/interval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace swapgame::math {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Interval, BasicPredicates) {
  const Interval iv{1.0, 3.0};
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.length(), 2.0);
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(2.9));
  EXPECT_FALSE(iv.contains(3.0));  // half-open
  EXPECT_FALSE(iv.contains(0.5));
  EXPECT_TRUE((Interval{2.0, 2.0}).empty());
  EXPECT_TRUE((Interval{3.0, 1.0}).empty());
}

TEST(IntervalSet, NormalizesOnConstruction) {
  const IntervalSet set({{3.0, 4.0}, {1.0, 2.0}, {1.5, 2.5}, {5.0, 5.0}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0].lo, 1.0);
  EXPECT_EQ(set.intervals()[0].hi, 2.5);
  EXPECT_EQ(set.intervals()[1].lo, 3.0);
  EXPECT_EQ(set.intervals()[1].hi, 4.0);
}

TEST(IntervalSet, MergesTouchingIntervals) {
  const IntervalSet set({{1.0, 2.0}, {2.0, 3.0}});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0].lo, 1.0);
  EXPECT_EQ(set.intervals()[0].hi, 3.0);
}

TEST(IntervalSet, ContainsUsesBinarySearch) {
  const IntervalSet set({{0.0, 1.0}, {2.0, 3.0}, {4.0, kInf}});
  EXPECT_TRUE(set.contains(0.5));
  EXPECT_FALSE(set.contains(1.5));
  EXPECT_TRUE(set.contains(2.0));
  EXPECT_FALSE(set.contains(3.7));
  EXPECT_TRUE(set.contains(1e12));
  EXPECT_FALSE(set.contains(-1.0));
}

TEST(IntervalSet, MeasureSumsLengths) {
  EXPECT_EQ(IntervalSet({{0.0, 1.0}, {2.0, 4.5}}).measure(), 3.5);
  EXPECT_EQ(IntervalSet().measure(), 0.0);
  EXPECT_TRUE(std::isinf(IntervalSet({{0.0, kInf}}).measure()));
}

TEST(IntervalSet, FromAlternatingRootsStartingInside) {
  // Roots {a, b, c} with the first piece inside: [lo,a) U [b,c).
  const auto set = IntervalSet::from_alternating_roots({1.0, 2.0, 3.0}, 0.0,
                                                       10.0, true);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0].lo, 0.0);
  EXPECT_EQ(set.intervals()[0].hi, 1.0);
  EXPECT_EQ(set.intervals()[1].lo, 2.0);
  EXPECT_EQ(set.intervals()[1].hi, 3.0);
}

TEST(IntervalSet, FromAlternatingRootsStartingOutside) {
  const auto set = IntervalSet::from_alternating_roots({1.0, 2.0, 3.0}, 0.0,
                                                       10.0, false);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0].lo, 1.0);
  EXPECT_EQ(set.intervals()[0].hi, 2.0);
  EXPECT_EQ(set.intervals()[1].lo, 3.0);
  EXPECT_EQ(set.intervals()[1].hi, 10.0);
}

TEST(IntervalSet, FromAlternatingRootsIgnoresOutOfDomainRoots) {
  const auto set = IntervalSet::from_alternating_roots({-5.0, 1.0, 20.0}, 0.0,
                                                       10.0, false);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0].lo, 1.0);
  EXPECT_EQ(set.intervals()[0].hi, 10.0);
}

// Regression: roots landing exactly ON a domain endpoint used to be
// discarded like out-of-domain ones, silently losing a parity flip.  The
// indifference functions do hit the sweep boundaries (e.g. a cont-region
// edge exactly at p_min when collateral makes Bob indifferent there), and
// dropping that root inverted the whole region.
TEST(IntervalSet, RootAtDomainLoTogglesStartingParity) {
  // First piece "inside" but zero-width: the real set starts OUTSIDE.
  const auto set =
      IntervalSet::from_alternating_roots({0.0, 2.0}, 0.0, 10.0, true);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0].lo, 2.0);
  EXPECT_EQ(set.intervals()[0].hi, 10.0);
  EXPECT_FALSE(set.contains(1.0));

  // Starting outside, a root at lo means inside from the very start.
  const auto flipped =
      IntervalSet::from_alternating_roots({0.0, 2.0}, 0.0, 10.0, false);
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_EQ(flipped.intervals()[0].lo, 0.0);
  EXPECT_EQ(flipped.intervals()[0].hi, 2.0);
}

TEST(IntervalSet, RootAtDomainHiIsANoOp) {
  // The flip happens past the domain; [1, hi) must not collapse.
  const auto set =
      IntervalSet::from_alternating_roots({1.0, 10.0}, 0.0, 10.0, false);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0].lo, 1.0);
  EXPECT_EQ(set.intervals()[0].hi, 10.0);
}

TEST(IntervalSet, RootsAtBothEndpointsCompose) {
  // {lo, hi} starting inside: parity flips at lo (-> outside for the whole
  // domain) and the hi root changes nothing.
  const auto set =
      IntervalSet::from_alternating_roots({0.0, 10.0}, 0.0, 10.0, true);
  EXPECT_TRUE(set.empty());
  const auto inv =
      IntervalSet::from_alternating_roots({0.0, 10.0}, 0.0, 10.0, false);
  ASSERT_EQ(inv.size(), 1u);
  EXPECT_EQ(inv.intervals()[0].lo, 0.0);
  EXPECT_EQ(inv.intervals()[0].hi, 10.0);
}

TEST(IntervalSet, TangentDoubleRootPreservesParity) {
  // A double root (tangency) flips twice: inside stays inside (the
  // zero-width gap normalizes away), outside stays outside.
  const auto inside =
      IntervalSet::from_alternating_roots({2.0, 2.0}, 0.0, 10.0, true);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside.intervals()[0].lo, 0.0);
  EXPECT_EQ(inside.intervals()[0].hi, 10.0);
  EXPECT_TRUE(
      IntervalSet::from_alternating_roots({2.0, 2.0}, 0.0, 10.0, false)
          .empty());
}

TEST(IntervalSet, DoubleRootAtDomainLoCancelsOut) {
  const auto set =
      IntervalSet::from_alternating_roots({0.0, 0.0, 3.0}, 0.0, 10.0, true);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0].lo, 0.0);
  EXPECT_EQ(set.intervals()[0].hi, 3.0);
}

TEST(IntervalSet, FromAlternatingRootsRejectsEmptyDomain) {
  EXPECT_THROW(IntervalSet::from_alternating_roots({}, 1.0, 1.0, true),
               std::invalid_argument);
}

TEST(IntervalSet, Unite) {
  const IntervalSet a({{0.0, 2.0}, {5.0, 6.0}});
  const IntervalSet b({{1.0, 3.0}, {7.0, 8.0}});
  const IntervalSet u = a.unite(b);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u.intervals()[0].lo, 0.0);
  EXPECT_EQ(u.intervals()[0].hi, 3.0);
}

TEST(IntervalSet, Intersect) {
  const IntervalSet a({{0.0, 2.0}, {3.0, 6.0}});
  const IntervalSet b({{1.0, 4.0}, {5.0, 7.0}});
  const IntervalSet i = a.intersect(b);
  ASSERT_EQ(i.size(), 3u);
  EXPECT_EQ(i.intervals()[0].lo, 1.0);
  EXPECT_EQ(i.intervals()[0].hi, 2.0);
  EXPECT_EQ(i.intervals()[1].lo, 3.0);
  EXPECT_EQ(i.intervals()[1].hi, 4.0);
  EXPECT_EQ(i.intervals()[2].lo, 5.0);
  EXPECT_EQ(i.intervals()[2].hi, 6.0);
}

TEST(IntervalSet, IntersectWithInfinitePiece) {
  const IntervalSet a({{0.0, kInf}});
  const IntervalSet b({{2.0, 5.0}});
  const IntervalSet i = a.intersect(b);
  ASSERT_EQ(i.size(), 1u);
  EXPECT_EQ(i.intervals()[0].lo, 2.0);
  EXPECT_EQ(i.intervals()[0].hi, 5.0);
}

TEST(IntervalSet, ComplementWithinDomain) {
  const IntervalSet set({{1.0, 2.0}, {3.0, 4.0}});
  const IntervalSet c = set.complement(0.0, 5.0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.intervals()[0].lo, 0.0);
  EXPECT_EQ(c.intervals()[0].hi, 1.0);
  EXPECT_EQ(c.intervals()[2].lo, 4.0);
  EXPECT_EQ(c.intervals()[2].hi, 5.0);
  // Complement of the complement restores the original within the domain.
  EXPECT_TRUE(c.complement(0.0, 5.0).equals(set, 0.0));
}

TEST(IntervalSet, ComplementOfEmptyIsDomain) {
  const IntervalSet c = IntervalSet().complement(1.0, 3.0);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.intervals()[0].lo, 1.0);
  EXPECT_EQ(c.intervals()[0].hi, 3.0);
}

TEST(IntervalSet, IntegratePiecewise) {
  const IntervalSet set({{0.0, 1.0}, {2.0, 3.0}});
  // integrate f(x) = x: 0.5 + 2.5 = 3.0
  const double total = set.integrate([](double lo, double hi) {
    return 0.5 * (hi * hi - lo * lo);
  });
  EXPECT_NEAR(total, 3.0, 1e-14);
}

TEST(IntervalSet, IntegrateUnboundedPieceRequiresTailIntegrator) {
  const IntervalSet set({{1.0, kInf}});
  EXPECT_THROW((void)set.integrate([](double, double) { return 0.0; }),
               std::invalid_argument);
  const double total = set.integrate(
      [](double, double) { return 0.0; },
      [](double lo) { return std::exp(-lo); });
  EXPECT_NEAR(total, std::exp(-1.0), 1e-14);
}

TEST(IntervalSet, ToStringRendering) {
  EXPECT_EQ(IntervalSet().to_string(), "{}");
  EXPECT_EQ(IntervalSet({{1.0, 2.0}}).to_string(), "[1, 2)");
  EXPECT_EQ(IntervalSet({{1.0, 2.0}, {3.0, 4.0}}).to_string(),
            "[1, 2) U [3, 4)");
}

TEST(IntervalSet, ApproximateEquality) {
  const IntervalSet a({{1.0, 2.0}});
  const IntervalSet b({{1.0 + 1e-10, 2.0 - 1e-10}});
  EXPECT_TRUE(a.equals(b, 1e-9));
  EXPECT_FALSE(a.equals(b, 1e-12));
  EXPECT_FALSE(a.equals(IntervalSet(), 1.0));
}

}  // namespace
}  // namespace swapgame::math
