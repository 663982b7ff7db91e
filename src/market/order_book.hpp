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
#include <map>
#include <optional>
#include <vector>

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
///
/// Layout: each side is a ladder of price levels, an ordered map keyed by
/// the exact limit (limits need not lie on any grid), and each level is a
/// FIFO of its resting orders.  A position table indexed by order id says
/// whether an order still rests and on which level, so a cancel flips it
/// to a tombstone in O(1) and leaves the order in its FIFO; tombstones are
/// skipped when they reach the FIFO's head and swept once they outnumber
/// the live orders, so they cost O(1) amortized and at most double a
/// level's memory.  Costs: submit O(log L) for L levels on the side (O(1)
/// when it crosses), cancel O(1) amortized (a level whose last order
/// leaves is erased by iterator), best_bid/best_ask/depth O(1).
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

  /// Cancels a resting order in O(1) amortized through the position
  /// table.  Returns false if unknown, already matched or cancelled.
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
  /// One price level: its orders in arrival order from `head` on, some of
  /// them tombstones (cancelled, no longer resting in the position table).
  struct Level {
    std::vector<Order> fifo;
    std::size_t head = 0;
    std::size_t live = 0;  ///< resting orders in fifo[head..]
  };
  /// Both sides ascend by limit: the best ask is the first level, the best
  /// bid the last.
  using Ladder = std::map<double, Level>;
  /// Where order id `positions_base_ + i` rests, if it does.
  struct Position {
    Ladder::iterator level;
    Side side = Side::kBuyTokenB;
    bool resting = false;
  };

  [[nodiscard]] bool resting(std::uint64_t order_id) const noexcept;
  /// Takes the first resting order of `level` (which has one).
  Order pop_front(Ladder::iterator level);
  /// Takes a resting order off its level, erasing the level when it was
  /// the last there (the match and cancel bookkeeping).
  void leave(Position& position);
  /// Drops the dead prefix of the position table.
  void reclaim_positions();

  Ladder bids_;
  Ladder asks_;
  std::size_t bid_depth_ = 0;
  std::size_t ask_depth_ = 0;
  // Position table: ids are handed out consecutively, so the entry of id
  // i is positions_[i - positions_base_].  Entries before positions_head_
  // are all dead; the prefix is erased once it is half the table.
  std::vector<Position> positions_;
  std::size_t positions_head_ = 0;
  std::uint64_t positions_base_ = 1;
  std::deque<Match> matches_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_sequence_ = 1;
  std::size_t matches_produced_ = 0;
};

}  // namespace swapgame::market
