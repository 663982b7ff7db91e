// Tests for the DEX match-making layer (src/market): order book semantics
// and the market statistics envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "market/order_book.hpp"
#include "market/population/population_sim.hpp"
#include "math/rng.hpp"

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

// ---- Reference model. -------------------------------------------------------

/// The price-time book as two multimaps plus id indexes: an independent
/// implementation of OrderBook's contract, driven side by side with it.
class ReferenceOrderBook {
 public:
  std::uint64_t submit(Side side, std::uint32_t trader, double limit_rate) {
    Order order{next_id_++, side, trader, limit_rate, next_sequence_++};
    if (side == Side::kBuyTokenB) {
      const auto best = asks_.begin();
      if (best != asks_.end() && limit_rate >= best->first) {
        matches_.push_back({order, best->second, best->first});
        ++matches_produced_;
        ask_index_.erase(best->second.id);
        asks_.erase(best);
      } else {
        bid_index_.emplace(order.id, bids_.emplace(limit_rate, order));
      }
    } else {
      const auto best = bids_.begin();
      if (best != bids_.end() && limit_rate <= best->first) {
        matches_.push_back({best->second, order, best->first});
        ++matches_produced_;
        bid_index_.erase(best->second.id);
        bids_.erase(best);
      } else {
        ask_index_.emplace(order.id, asks_.emplace(limit_rate, order));
      }
    }
    return order.id;
  }
  std::optional<Match> take_match() {
    if (matches_.empty()) return std::nullopt;
    Match match = matches_.front();
    matches_.pop_front();
    return match;
  }
  bool cancel(std::uint64_t order_id) {
    if (const auto it = bid_index_.find(order_id); it != bid_index_.end()) {
      bids_.erase(it->second);
      bid_index_.erase(it);
      return true;
    }
    if (const auto it = ask_index_.find(order_id); it != ask_index_.end()) {
      asks_.erase(it->second);
      ask_index_.erase(it);
      return true;
    }
    return false;
  }
  std::optional<double> best_bid() const {
    if (bids_.empty()) return std::nullopt;
    return bids_.begin()->first;
  }
  std::optional<double> best_ask() const {
    if (asks_.empty()) return std::nullopt;
    return asks_.begin()->first;
  }
  std::size_t depth(Side side) const noexcept {
    return side == Side::kBuyTokenB ? bids_.size() : asks_.size();
  }
  std::size_t matches_produced() const noexcept { return matches_produced_; }

 private:
  using BidMap = std::multimap<double, Order, std::greater<double>>;
  using AskMap = std::multimap<double, Order>;
  BidMap bids_;
  AskMap asks_;
  std::map<std::uint64_t, BidMap::iterator> bid_index_;
  std::map<std::uint64_t, AskMap::iterator> ask_index_;
  std::deque<Match> matches_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_sequence_ = 1;
  std::size_t matches_produced_ = 0;
};

/// Everything one side returned or reported, flattened for comparison.
struct BookLog {
  std::vector<double> values;
  std::size_t matched = 0;
  std::size_t cancels_accepted = 0;
  std::size_t cancels_refused = 0;

  void add(double v) { values.push_back(v); }
  void add(const std::optional<double>& v) {
    values.push_back(v.has_value() ? 1.0 : 0.0);
    values.push_back(v.value_or(0.0));
  }
  void add(const Order& o) {
    for (const double v :
         {static_cast<double>(o.id), static_cast<double>(o.side),
          static_cast<double>(o.trader), o.limit_rate,
          static_cast<double>(o.sequence)}) {
      values.push_back(v);
    }
  }
  void add(const Match& m) {
    add(m.buy);
    add(m.sell);
    values.push_back(m.rate);
  }
};

/// Seeded traffic: limits on and off a tick grid around a drifting mid,
/// marketable takers, cancels of resting, matched, cancelled, unknown and
/// future ids, cancel storms and late take_match() calls.
template <class Book>
BookLog drive_book(std::uint64_t seed, int operations) {
  Book book;
  BookLog log;
  math::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> ids;  // every id handed out
  double mid = 2.0;
  const auto snapshot = [&] {
    log.add(book.best_bid());
    log.add(book.best_ask());
    log.add(static_cast<double>(book.depth(Side::kBuyTokenB)));
    log.add(static_cast<double>(book.depth(Side::kSellTokenB)));
  };
  const auto drain_matches = [&] {
    while (auto match = book.take_match()) {
      log.add(*match);
      ++log.matched;
    }
  };
  for (int op = 0; op < operations; ++op) {
    const std::uint64_t kind = rng() % 16;
    if (kind < 9) {
      mid *= std::exp(0.01 * (math::uniform01(rng) - 0.5));
      const Side side = (rng() & 1) != 0 ? Side::kBuyTokenB : Side::kSellTokenB;
      double limit = mid * (0.96 + 0.08 * math::uniform01(rng));
      if (rng() % 3 != 0) {
        limit = std::max(0.02, std::round(limit / 0.02) * 0.02);  // on-grid
      }
      if (kind == 8) limit = side == Side::kBuyTokenB ? mid * 1.2 : mid * 0.8;
      const auto trader = static_cast<std::uint32_t>(rng() % 5);
      ids.push_back(book.submit(side, trader, limit));
      log.add(static_cast<double>(ids.back()));
      if (rng() % 4 != 0) drain_matches();
    } else if (kind < 13 && !ids.empty()) {
      // One cancel: mostly recent ids, sometimes old, unknown or future.
      std::uint64_t id =
          ids[ids.size() - 1 - rng() % std::min<std::size_t>(ids.size(), 40)];
      if (kind == 12) id = (rng() & 1) != 0 ? 0 : ids.back() + 1 + rng() % 5;
      const bool ok = book.cancel(id);
      ++(ok ? log.cancels_accepted : log.cancels_refused);
      log.add(ok ? 1.0 : 0.0);
    } else if (kind == 13) {
      // A storm: cancel every id of the last few hundred, twice over.
      const std::size_t span =
          std::min<std::size_t>(ids.size(), 50 + rng() % 300);
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = ids.size() - span; i < ids.size(); ++i) {
          const bool ok = book.cancel(ids[i]);
          ++(ok ? log.cancels_accepted : log.cancels_refused);
          log.add(ok ? 1.0 : 0.0);
        }
      }
    } else {
      drain_matches();
    }
    snapshot();
    log.add(static_cast<double>(book.matches_produced()));
  }
  drain_matches();
  for (const std::uint64_t id : ids) log.add(book.cancel(id) ? 1.0 : 0.0);
  snapshot();
  return log;
}

TEST(OrderBook, MatchesReferenceModelUnderRandomTraffic) {
  for (const std::uint64_t seed : {0xB00Cu, 0x17u, 0x5EEDu}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const BookLog want = drive_book<ReferenceOrderBook>(seed, 20000);
    const BookLog got = drive_book<OrderBook>(seed, 20000);
    // The traffic exercises what it is meant to.
    EXPECT_GT(want.matched, 2000u);
    EXPECT_GT(want.cancels_accepted, 1000u);
    EXPECT_GT(want.cancels_refused, 1000u);
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.cancels_accepted, want.cancels_accepted);
    EXPECT_EQ(got.cancels_refused, want.cancels_refused);
    ASSERT_EQ(got.values.size(), want.values.size());
    EXPECT_TRUE(got.values == want.values);
  }
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
