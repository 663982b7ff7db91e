// Match-making for swap counterparties (paper Section II-A: "the DEXs
// generally provide solely match-making services and then require P2P
// execution governed by coordination mechanisms such as HTLCs").
//
// A classic price-time-priority limit order book over the exchange rate
// P* (token-a per token-b): buyers of token-b post the most they will pay,
// sellers the least they will accept; a cross produces a Match that the
// population simulator (market/population/population_sim.hpp) executes as
// an HTLC swap session on shared chain state.  Orders are unit-sized (1 token-b), matching the
// paper's swap normalization.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

namespace swapgame::market {

/// Which side of the book an order rests on.
enum class Side : std::uint8_t {
  kBuyTokenB,   ///< will play Alice (pays P* token-a for 1 token-b)
  kSellTokenB,  ///< will play Bob (delivers 1 token-b for P* token-a)
};

[[nodiscard]] const char* to_string(Side side) noexcept;

/// A resting or incoming unit-size limit order.
struct Order {
  std::uint64_t id = 0;
  Side side = Side::kBuyTokenB;
  std::uint32_t trader = 0;    ///< caller's tag (the population: trader type)
  double limit_rate = 0.0;     ///< price bound in token-a per token-b
  std::uint64_t sequence = 0;  ///< arrival order (time priority)
};

/// A crossed pair, priced at the RESTING (maker) order's limit.
struct Match {
  Order buy;
  Order sell;
  double rate = 0.0;
};

/// Price-time-priority limit order book.
class OrderBook {
 public:
  /// Submits an order; if it crosses the opposite side, the best resting
  /// order is matched immediately (taker pays/receives the maker's price)
  /// and the match is queued for take_match().  Returns the order id.
  /// `trader` is an opaque tag handed back on the order's Match.
  /// @throws std::invalid_argument for a non-positive or non-finite limit.
  std::uint64_t submit(Side side, std::uint32_t trader, double limit_rate);

  /// Pops the oldest unconsumed match, if any.
  [[nodiscard]] std::optional<Match> take_match();

  /// Cancels a resting order in O(log n) via the id index.  Returns false
  /// if unknown or already matched.
  bool cancel(std::uint64_t order_id);

  /// Best bid (highest buy limit) / best ask (lowest sell limit).
  [[nodiscard]] std::optional<double> best_bid() const;
  [[nodiscard]] std::optional<double> best_ask() const;

  /// Number of resting orders on a side.
  [[nodiscard]] std::size_t depth(Side side) const noexcept;

  [[nodiscard]] std::size_t matches_produced() const noexcept {
    return matches_produced_;
  }

 private:
  // Bids sorted by descending limit then sequence; asks ascending.
  using BidMap = std::multimap<double, Order, std::greater<double>>;
  using AskMap = std::multimap<double, Order>;
  BidMap bids_;
  AskMap asks_;
  // id -> resting position, maintained on every rest/match/cancel so a
  // cancel never scans the books (a cancel storm over 10^5 resting orders
  // was quadratic with the old linear scan).  Two maps because the two
  // books have distinct comparator (and so iterator) types; an id is in at
  // most one of them.
  std::map<std::uint64_t, BidMap::iterator> bid_index_;
  std::map<std::uint64_t, AskMap::iterator> ask_index_;
  std::deque<Match> matches_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_sequence_ = 1;
  std::size_t matches_produced_ = 0;
};

}  // namespace swapgame::market
