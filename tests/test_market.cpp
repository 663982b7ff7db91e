// Tests for the DEX match-making layer (src/market): order book semantics
// and the market statistics envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "market/order_book.hpp"
#include "market/population/population_sim.hpp"

namespace swapgame::market {
namespace {

model::AgentParams prefs(double alpha = 0.3, double r = 0.01) {
  return {alpha, r};
}

TEST(OrderBook, ValidatesInput) {
  OrderBook book;
  EXPECT_THROW((void)book.submit(Side::kBuyTokenB, "t", 0.0, prefs()),
               std::invalid_argument);
  EXPECT_THROW((void)book.submit(Side::kBuyTokenB, "", 2.0, prefs()),
               std::invalid_argument);
  EXPECT_THROW((void)book.submit(Side::kBuyTokenB, "t", 2.0, prefs(0.3, 0.0)),
               std::invalid_argument);
}

TEST(OrderBook, RestingOrdersDoNotMatchWithoutCross) {
  OrderBook book;
  book.submit(Side::kBuyTokenB, "buyer", 1.9, prefs());
  book.submit(Side::kSellTokenB, "seller", 2.1, prefs());
  EXPECT_FALSE(book.take_match().has_value());
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 1u);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 1u);
  EXPECT_DOUBLE_EQ(*book.best_bid(), 1.9);
  EXPECT_DOUBLE_EQ(*book.best_ask(), 2.1);
}

TEST(OrderBook, CrossMatchesAtMakerPrice) {
  OrderBook book;
  book.submit(Side::kSellTokenB, "maker", 2.0, prefs());
  book.submit(Side::kBuyTokenB, "taker", 2.3, prefs());
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_DOUBLE_EQ(match->rate, 2.0);  // maker's (resting) price
  EXPECT_EQ(match->buy.trader, "taker");
  EXPECT_EQ(match->sell.trader, "maker");
  EXPECT_EQ(book.depth(Side::kSellTokenB), 0u);
}

TEST(OrderBook, PricePriorityBestOppositeFirst) {
  OrderBook book;
  book.submit(Side::kSellTokenB, "expensive", 2.2, prefs());
  book.submit(Side::kSellTokenB, "cheap", 1.8, prefs());
  book.submit(Side::kBuyTokenB, "buyer", 2.5, prefs());
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, "cheap");
  EXPECT_DOUBLE_EQ(match->rate, 1.8);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 1u);
}

TEST(OrderBook, TimePriorityAtEqualPrice) {
  OrderBook book;
  book.submit(Side::kSellTokenB, "first", 2.0, prefs());
  book.submit(Side::kSellTokenB, "second", 2.0, prefs());
  book.submit(Side::kBuyTokenB, "buyer", 2.0, prefs());
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, "first");
}

TEST(OrderBook, SellTakerCrossesBestBid) {
  OrderBook book;
  book.submit(Side::kBuyTokenB, "low", 1.9, prefs());
  book.submit(Side::kBuyTokenB, "high", 2.1, prefs());
  book.submit(Side::kSellTokenB, "seller", 2.0, prefs());
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->buy.trader, "high");
  EXPECT_DOUBLE_EQ(match->rate, 2.1);  // maker bid
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 1u);
}

TEST(OrderBook, CancelRemovesRestingOrder) {
  OrderBook book;
  const auto id = book.submit(Side::kBuyTokenB, "buyer", 1.9, prefs());
  EXPECT_TRUE(book.cancel(id));
  EXPECT_FALSE(book.cancel(id));
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 0u);
  // A later crossing sell no longer matches.
  book.submit(Side::kSellTokenB, "seller", 1.8, prefs());
  EXPECT_FALSE(book.take_match().has_value());
}

TEST(OrderBook, CancelAfterMatchReturnsFalse) {
  // Once a resting order has been consumed by a cross, its id must leave
  // the cancel index: cancelling it is a no-op that reports false.
  OrderBook book;
  const auto maker = book.submit(Side::kSellTokenB, "maker", 2.0, prefs());
  book.submit(Side::kBuyTokenB, "taker", 2.3, prefs());
  ASSERT_TRUE(book.take_match().has_value());
  EXPECT_FALSE(book.cancel(maker));
  EXPECT_EQ(book.depth(Side::kSellTokenB), 0u);
}

TEST(OrderBook, CancelThenEqualPriceKeepsFifo) {
  // Cancelling the first of two equal-priced makers must leave the
  // second's time priority intact -- and never disturb its book position.
  OrderBook book;
  const auto first = book.submit(Side::kSellTokenB, "first", 2.0, prefs());
  book.submit(Side::kSellTokenB, "second", 2.0, prefs());
  book.submit(Side::kSellTokenB, "third", 2.0, prefs());
  EXPECT_TRUE(book.cancel(first));
  book.submit(Side::kBuyTokenB, "buyer", 2.0, prefs());
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, "second");
  EXPECT_EQ(book.depth(Side::kSellTokenB), 1u);
}

TEST(OrderBook, IdIndexStaysConsistentUnderChurn) {
  // Interleaved rests, crosses and cancels on both sides: every resting id
  // is cancellable exactly once, consumed ids never are, and depth always
  // matches the live-order count.
  OrderBook book;
  std::vector<std::uint64_t> live;
  std::vector<std::uint64_t> consumed;
  for (int round = 0; round < 50; ++round) {
    const double bid = 1.0 + 0.01 * round;
    const double ask = 3.0 - 0.01 * round;
    live.push_back(book.submit(Side::kBuyTokenB, "b", bid, prefs()));
    live.push_back(book.submit(Side::kSellTokenB, "s", ask, prefs()));
    if (round % 5 == 0 && !live.empty()) {
      EXPECT_TRUE(book.cancel(live.front()));
      live.erase(live.begin());
    }
    if (round % 7 == 0) {
      // A marketable buy consumes the current best ask.
      book.submit(Side::kBuyTokenB, "taker", 3.5, prefs());
      const auto match = book.take_match();
      ASSERT_TRUE(match.has_value());
      consumed.push_back(match->sell.id);
      live.erase(std::find(live.begin(), live.end(), match->sell.id));
    }
  }
  EXPECT_EQ(book.depth(Side::kBuyTokenB) + book.depth(Side::kSellTokenB),
            live.size());
  for (const std::uint64_t id : consumed) EXPECT_FALSE(book.cancel(id));
  for (const std::uint64_t id : live) EXPECT_TRUE(book.cancel(id));
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 0u);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 0u);
}

TEST(OrderBook, MatchesAreFifo) {
  OrderBook book;
  book.submit(Side::kSellTokenB, "s1", 2.0, prefs());
  book.submit(Side::kBuyTokenB, "b1", 2.0, prefs());
  book.submit(Side::kSellTokenB, "s2", 2.0, prefs());
  book.submit(Side::kBuyTokenB, "b2", 2.0, prefs());
  EXPECT_EQ(book.matches_produced(), 2u);
  EXPECT_EQ(book.take_match()->buy.trader, "b1");
  EXPECT_EQ(book.take_match()->buy.trader, "b2");
  EXPECT_FALSE(book.take_match().has_value());
}

// ---- Market statistics. -----------------------------------------------------

TEST(MarketStats, CompletionRateIsNaNWhenNeverInitiated) {
  // An empty (or never-initiated) run has NO empirical completion rate;
  // 0.0 would be a fake number that drags down averages.  Matches
  // McEstimate::conditional_success_rate's convention.
  EXPECT_TRUE(std::isnan(MarketStats{}.completion_rate()));

  MarketStats matched_only;
  matched_only.matches = 4;  // matched, but nothing initiated
  EXPECT_TRUE(std::isnan(matched_only.completion_rate()));

  MarketStats some;
  some.initiated = 4;
  some.completed = 3;
  EXPECT_DOUBLE_EQ(some.completion_rate(), 0.75);
}

}  // namespace
}  // namespace swapgame::market
