#include "order_book.hpp"

#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace swapgame::market {

const char* to_string(Side side) noexcept {
  return side == Side::kBuyTokenB ? "buy" : "sell";
}

std::uint64_t OrderBook::submit(Side side, std::uint32_t trader,
                                double limit_rate) {
  if (!(limit_rate > 0.0) || !std::isfinite(limit_rate)) {
    throw std::invalid_argument("OrderBook::submit: limit must be positive");
  }

  Order order;
  order.id = next_id_++;
  order.side = side;
  order.trader = trader;
  order.limit_rate = limit_rate;
  order.sequence = next_sequence_++;
  positions_.emplace_back();

  const bool buys = side == Side::kBuyTokenB;
  Ladder& opposite = buys ? asks_ : bids_;
  if (!opposite.empty()) {
    // Cross against the best opposite level if the limit reaches it.
    const auto best = buys ? opposite.begin() : std::prev(opposite.end());
    if (buys ? limit_rate >= best->first : limit_rate <= best->first) {
      Match match;
      match.rate = best->first;  // maker's price
      (buys ? match.sell : match.buy) = pop_front(best);
      (buys ? match.buy : match.sell) = order;
      matches_.push_back(std::move(match));
      ++matches_produced_;
      reclaim_positions();
      return order.id;
    }
  }
  Ladder& own = buys ? bids_ : asks_;
  const auto level = own.try_emplace(limit_rate).first;
  level->second.fifo.push_back(order);
  ++level->second.live;
  ++(buys ? bid_depth_ : ask_depth_);
  positions_.back() = Position{level, side, true};
  return order.id;
}

bool OrderBook::resting(std::uint64_t order_id) const noexcept {
  return order_id >= positions_base_ + positions_head_ && order_id < next_id_ &&
         positions_[order_id - positions_base_].resting;
}

Order OrderBook::pop_front(Ladder::iterator level) {
  const Level& l = level->second;
  // leave() keeps the head on a resting order.
  const Order order = l.fifo[l.head];
  leave(positions_[order.id - positions_base_]);
  return order;
}

void OrderBook::leave(Position& position) {
  position.resting = false;
  const bool buys = position.side == Side::kBuyTokenB;
  --(buys ? bid_depth_ : ask_depth_);
  const Ladder::iterator level = position.level;
  Level& l = level->second;
  if (--l.live == 0) {
    (buys ? bids_ : asks_).erase(level);
    return;
  }
  // Tombstones at the head are skipped now; once those left behind it
  // outnumber the live orders, the FIFO is rewritten without them.
  while (!resting(l.fifo[l.head].id)) ++l.head;
  if (l.fifo.size() - l.head > 2 * l.live + 16) {
    std::erase_if(l.fifo, [this](const Order& o) { return !resting(o.id); });
    l.head = 0;
  } else if (l.head * 2 >= l.fifo.size()) {
    l.fifo.erase(l.fifo.begin(),
                 l.fifo.begin() + static_cast<std::ptrdiff_t>(l.head));
    l.head = 0;
  }
}

void OrderBook::reclaim_positions() {
  while (positions_head_ < positions_.size() &&
         !positions_[positions_head_].resting) {
    ++positions_head_;
  }
  if (positions_head_ * 2 >= positions_.size()) {
    positions_.erase(positions_.begin(),
                     positions_.begin() +
                         static_cast<std::ptrdiff_t>(positions_head_));
    positions_base_ += positions_head_;
    positions_head_ = 0;
  }
}

std::optional<Match> OrderBook::take_match() {
  if (matches_.empty()) return std::nullopt;
  Match match = std::move(matches_.front());
  matches_.pop_front();
  return match;
}

bool OrderBook::cancel(std::uint64_t order_id) {
  if (!resting(order_id)) return false;
  leave(positions_[order_id - positions_base_]);
  reclaim_positions();
  return true;
}

std::optional<double> OrderBook::best_bid() const {
  if (bids_.empty()) return std::nullopt;
  return std::prev(bids_.end())->first;
}

std::optional<double> OrderBook::best_ask() const {
  if (asks_.empty()) return std::nullopt;
  return asks_.begin()->first;
}

std::size_t OrderBook::depth(Side side) const noexcept {
  return side == Side::kBuyTokenB ? bid_depth_ : ask_depth_;
}

}  // namespace swapgame::market
