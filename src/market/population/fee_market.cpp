#include "fee_market.hpp"

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace swapgame::market {

void FeeMarketConfig::validate() const {
  if (!(block_interval > 0.0) || !std::isfinite(block_interval)) {
    throw std::invalid_argument("FeeMarketConfig: block_interval must be > 0");
  }
  if (block_capacity == 0) {
    throw std::invalid_argument("FeeMarketConfig: block_capacity must be >= 1");
  }
  if (mempool_capacity == 0) {
    throw std::invalid_argument(
        "FeeMarketConfig: mempool_capacity must be >= 1");
  }
}

const char* to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kEvicted:
      return "evicted";
    case DropReason::kExpired:
      return "expired";
  }
  return "?";
}

FeeMarket::FeeMarket(const FeeMarketConfig& config, chain::EventQueue& queue,
                     BlockSink on_block, DropSink on_drop)
    : config_(config), queue_(&queue), on_block_(std::move(on_block)),
      on_drop_(std::move(on_drop)) {
  config_.validate();
  if (!on_block_ || !on_drop_) {
    throw std::invalid_argument("FeeMarket: needs a block and a drop sink");
  }
}

void FeeMarket::submit(std::uint64_t owner_tag, chain::TxPayload payload,
                       double fee, double inclusion_deadline) {
  if (!(fee >= 0.0) || !std::isfinite(fee)) {
    throw std::invalid_argument("FeeMarket: fee must be finite and >= 0");
  }
  if (!(inclusion_deadline >= queue_->now())) {
    throw std::invalid_argument("FeeMarket: deadline is already past");
  }
  const std::uint64_t id = next_id_++;
  intents_.emplace(
      id, Intent{std::move(payload), fee, inclusion_deadline, owner_tag});
  order_.emplace(fee, id);
  if (intents_.size() > config_.mempool_capacity) {
    // Evict the worst bid; among equal fees the NEWEST goes (an incumbent
    // at the same price keeps its slot, first-come-first-kept).
    drop(std::prev(order_.end())->second, DropReason::kEvicted);
  }
  if (!intents_.empty()) ensure_seal_scheduled();
}

void FeeMarket::ensure_seal_scheduled() {
  if (seal_scheduled_) return;
  seal_scheduled_ = true;
  queue_->schedule_in(config_.block_interval, [this] { seal_block(); });
}

void FeeMarket::seal_block() {
  seal_scheduled_ = false;
  ++blocks_sealed_;
  const double now = queue_->now();

  // Sweep expired intents first (deadline strictly before this seal) so
  // they never consume block space; drop them in arrival order.
  std::vector<std::uint64_t> lapsed;
  for (const auto& [id, intent] : intents_) {
    if (intent.deadline < now) lapsed.push_back(id);
  }
  for (const std::uint64_t id : lapsed) drop(id, DropReason::kExpired);

  // Include the best block_capacity bids and hand the whole block to the
  // sink in one call, after the mempool mutation: the owners submit each
  // payload to their ledger at this seal time (the confirmation clock
  // starts here -- inclusion latency is the fee market's whole effect).
  std::vector<Intent> block;
  while (!order_.empty() && block.size() < config_.block_capacity) {
    const auto best = order_.begin();
    const auto it = intents_.find(best->second);
    ++included_;
    fees_paid_ += it->second.fee;
    block.push_back(std::move(it->second));
    order_.erase(best);
    intents_.erase(it);
  }
  if (!block.empty()) on_block_(block, now);
  if (!intents_.empty()) ensure_seal_scheduled();
}

void FeeMarket::drop(std::uint64_t id, DropReason reason) {
  const auto it = intents_.find(id);
  order_.erase({it->second.fee, id});
  if (reason == DropReason::kEvicted) {
    ++evicted_;
  } else {
    ++expired_;
  }
  // Deliver through the queue at the current time: re-bids re-enter
  // submit() outside this mutation, in deterministic queue order.
  queue_->schedule_at(queue_->now(),
                      [this, tag = it->second.owner_tag,
                       payload = std::move(it->second.payload),
                       reason]() mutable {
                        on_drop_(tag, std::move(payload), reason);
                      });
  intents_.erase(it);
}

}  // namespace swapgame::market
