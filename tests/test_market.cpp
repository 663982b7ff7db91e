// Tests for the DEX match-making layer (src/market): order book semantics
// and the market statistics envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "market/order_book.hpp"
#include "market/population/population_sim.hpp"

namespace swapgame::market {
namespace {

// Trader tags: opaque to the book, handed back on each match.
enum Trader : std::uint32_t {
  kBuyer = 1,
  kSeller,
  kMaker,
  kTaker,
  kExpensive,
  kCheap,
  kFirst,
  kSecond,
  kThird,
  kLow,
  kHigh,
  kB1,
  kB2,
  kS1,
  kS2,
};

TEST(OrderBook, ValidatesInput) {
  OrderBook book;
  EXPECT_THROW((void)book.submit(Side::kBuyTokenB, kBuyer, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)book.submit(Side::kBuyTokenB, kBuyer,
                                 std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(OrderBook, RestingOrdersDoNotMatchWithoutCross) {
  OrderBook book;
  book.submit(Side::kBuyTokenB, kBuyer, 1.9);
  book.submit(Side::kSellTokenB, kSeller, 2.1);
  EXPECT_FALSE(book.take_match().has_value());
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 1u);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 1u);
  EXPECT_DOUBLE_EQ(*book.best_bid(), 1.9);
  EXPECT_DOUBLE_EQ(*book.best_ask(), 2.1);
}

TEST(OrderBook, CrossMatchesAtMakerPrice) {
  OrderBook book;
  book.submit(Side::kSellTokenB, kMaker, 2.0);
  book.submit(Side::kBuyTokenB, kTaker, 2.3);
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_DOUBLE_EQ(match->rate, 2.0);  // maker's (resting) price
  EXPECT_EQ(match->buy.trader, kTaker);
  EXPECT_EQ(match->sell.trader, kMaker);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 0u);
}

TEST(OrderBook, PricePriorityBestOppositeFirst) {
  OrderBook book;
  book.submit(Side::kSellTokenB, kExpensive, 2.2);
  book.submit(Side::kSellTokenB, kCheap, 1.8);
  book.submit(Side::kBuyTokenB, kBuyer, 2.5);
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, kCheap);
  EXPECT_DOUBLE_EQ(match->rate, 1.8);
  EXPECT_EQ(book.depth(Side::kSellTokenB), 1u);
}

TEST(OrderBook, TimePriorityAtEqualPrice) {
  OrderBook book;
  book.submit(Side::kSellTokenB, kFirst, 2.0);
  book.submit(Side::kSellTokenB, kSecond, 2.0);
  book.submit(Side::kBuyTokenB, kBuyer, 2.0);
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, kFirst);
}

TEST(OrderBook, SellTakerCrossesBestBid) {
  OrderBook book;
  book.submit(Side::kBuyTokenB, kLow, 1.9);
  book.submit(Side::kBuyTokenB, kHigh, 2.1);
  book.submit(Side::kSellTokenB, kSeller, 2.0);
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->buy.trader, kHigh);
  EXPECT_DOUBLE_EQ(match->rate, 2.1);  // maker bid
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 1u);
}

TEST(OrderBook, CancelRemovesRestingOrder) {
  OrderBook book;
  const auto id = book.submit(Side::kBuyTokenB, kBuyer, 1.9);
  EXPECT_TRUE(book.cancel(id));
  EXPECT_FALSE(book.cancel(id));
  EXPECT_EQ(book.depth(Side::kBuyTokenB), 0u);
  // A later crossing sell no longer matches.
  book.submit(Side::kSellTokenB, kSeller, 1.8);
  EXPECT_FALSE(book.take_match().has_value());
}

TEST(OrderBook, CancelAfterMatchReturnsFalse) {
  // Once a resting order has been consumed by a cross, its id must leave
  // the cancel index: cancelling it is a no-op that reports false.
  OrderBook book;
  const auto maker = book.submit(Side::kSellTokenB, kMaker, 2.0);
  book.submit(Side::kBuyTokenB, kTaker, 2.3);
  ASSERT_TRUE(book.take_match().has_value());
  EXPECT_FALSE(book.cancel(maker));
  EXPECT_EQ(book.depth(Side::kSellTokenB), 0u);
}

TEST(OrderBook, CancelThenEqualPriceKeepsFifo) {
  // Cancelling the first of two equal-priced makers must leave the
  // second's time priority intact -- and never disturb its book position.
  OrderBook book;
  const auto first = book.submit(Side::kSellTokenB, kFirst, 2.0);
  book.submit(Side::kSellTokenB, kSecond, 2.0);
  book.submit(Side::kSellTokenB, kThird, 2.0);
  EXPECT_TRUE(book.cancel(first));
  book.submit(Side::kBuyTokenB, kBuyer, 2.0);
  const auto match = book.take_match();
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->sell.trader, kSecond);
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
    live.push_back(book.submit(Side::kBuyTokenB, kBuyer, bid));
    live.push_back(book.submit(Side::kSellTokenB, kSeller, ask));
    if (round % 5 == 0 && !live.empty()) {
      EXPECT_TRUE(book.cancel(live.front()));
      live.erase(live.begin());
    }
    if (round % 7 == 0) {
      // A marketable buy consumes the current best ask.
      book.submit(Side::kBuyTokenB, kTaker, 3.5);
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
  book.submit(Side::kSellTokenB, kS1, 2.0);
  book.submit(Side::kBuyTokenB, kB1, 2.0);
  book.submit(Side::kSellTokenB, kS2, 2.0);
  book.submit(Side::kBuyTokenB, kB2, 2.0);
  EXPECT_EQ(book.matches_produced(), 2u);
  EXPECT_EQ(book.take_match()->buy.trader, kB1);
  EXPECT_EQ(book.take_match()->buy.trader, kB2);
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
