#include "fee_market.hpp"

#include <algorithm>
#include <cmath>
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
  pool_.push_back(
      Slot{Intent{std::move(payload), fee, inclusion_deadline, owner_tag}, id});
  worst_.push_back(Key{fee, id, pool_.size() - 1});
  std::push_heap(worst_.begin(), worst_.end(), BetterBid{});
  if (++pending_ > config_.mempool_capacity) {
    // Evict the worst bid; among equal fees the NEWEST goes (an incumbent
    // at the same price keeps its slot, first-come-first-kept).
    std::pop_heap(worst_.begin(), worst_.end(), BetterBid{});
    const std::size_t pos = worst_.back().pos;
    worst_.pop_back();
    drop(pos, DropReason::kEvicted);
  }
  if (pending_ != 0) ensure_seal_scheduled();
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
  for (std::size_t pos = 0; pos < pool_.size(); ++pos) {
    if (pool_[pos].live && pool_[pos].intent.deadline < now) {
      drop(pos, DropReason::kExpired);
    }
  }

  // Rank the live bids: the block_capacity best, best first.  The heap
  // holds every live key and the keys of the slots just expired.
  std::erase_if(worst_, [this](const Key& k) { return !pool_[k.pos].live; });
  const auto take = static_cast<std::ptrdiff_t>(
      std::min(config_.block_capacity, worst_.size()));
  std::nth_element(worst_.begin(), worst_.begin() + take, worst_.end(),
                   BetterBid{});
  std::sort(worst_.begin(), worst_.begin() + take, BetterBid{});

  // Include them and hand the whole block to the sink in one call, after
  // the mempool mutation: the owners submit each payload to their ledger at
  // this seal time (the confirmation clock starts here -- inclusion latency
  // is the fee market's whole effect).
  std::vector<Intent> block;
  block.reserve(static_cast<std::size_t>(take));
  for (auto k = worst_.begin(); k != worst_.begin() + take; ++k) {
    Slot& slot = pool_[k->pos];
    slot.live = false;
    ++included_;
    fees_paid_ += slot.intent.fee;
    block.push_back(std::move(slot.intent));
  }
  pending_ -= static_cast<std::size_t>(take);

  // Compact the pool (arrival order kept) and rebuild the heap over it.
  std::erase_if(pool_, [](const Slot& slot) { return !slot.live; });
  worst_.clear();
  for (std::size_t pos = 0; pos < pool_.size(); ++pos) {
    worst_.push_back(Key{pool_[pos].intent.fee, pool_[pos].id, pos});
  }
  std::make_heap(worst_.begin(), worst_.end(), BetterBid{});

  if (!block.empty()) on_block_(block, now);
  if (pending_ != 0) ensure_seal_scheduled();
}

void FeeMarket::drop(std::size_t pos, DropReason reason) {
  Slot& slot = pool_[pos];
  slot.live = false;
  --pending_;
  if (reason == DropReason::kEvicted) {
    ++evicted_;
  } else {
    ++expired_;
  }
  // Deliver through the queue at the current time: re-bids re-enter
  // submit() outside this mutation, in deterministic queue order.
  queue_->schedule_at(queue_->now(),
                      [this, tag = slot.intent.owner_tag,
                       payload = std::move(slot.intent.payload),
                       reason]() mutable {
                        on_drop_(tag, std::move(payload), reason);
                      });
}

}  // namespace swapgame::market
