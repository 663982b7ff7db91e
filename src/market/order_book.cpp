#include "order_book.hpp"

#include <cmath>
#include <stdexcept>

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

  if (side == Side::kBuyTokenB) {
    // Cross against the best ask if the buyer pays at least that much.
    const auto best = asks_.begin();
    if (best != asks_.end() && limit_rate >= best->first) {
      Match match;
      match.buy = order;
      match.sell = best->second;
      match.rate = best->first;  // maker's price
      ask_index_.erase(best->second.id);
      asks_.erase(best);
      matches_.push_back(std::move(match));
      ++matches_produced_;
    } else {
      bid_index_.emplace(order.id, bids_.emplace(limit_rate, order));
    }
  } else {
    const auto best = bids_.begin();
    if (best != bids_.end() && limit_rate <= best->first) {
      Match match;
      match.buy = best->second;
      match.sell = order;
      match.rate = best->first;  // maker's price
      bid_index_.erase(best->second.id);
      bids_.erase(best);
      matches_.push_back(std::move(match));
      ++matches_produced_;
    } else {
      ask_index_.emplace(order.id, asks_.emplace(limit_rate, order));
    }
  }
  return order.id;
}

std::optional<Match> OrderBook::take_match() {
  if (matches_.empty()) return std::nullopt;
  Match match = std::move(matches_.front());
  matches_.pop_front();
  return match;
}

bool OrderBook::cancel(std::uint64_t order_id) {
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

std::optional<double> OrderBook::best_bid() const {
  if (bids_.empty()) return std::nullopt;
  return bids_.begin()->first;
}

std::optional<double> OrderBook::best_ask() const {
  if (asks_.empty()) return std::nullopt;
  return asks_.begin()->first;
}

std::size_t OrderBook::depth(Side side) const noexcept {
  return side == Side::kBuyTokenB ? bids_.size() : asks_.size();
}

}  // namespace swapgame::market
