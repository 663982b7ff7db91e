#include "fee_market.hpp"

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

FeeMarket::FeeMarket(const FeeMarketConfig& config, chain::Ledger& ledger,
                     chain::EventQueue& queue)
    : config_(config), ledger_(&ledger), queue_(&queue) {
  config_.validate();
}

FeeMarket::FeeMarket(const FeeMarketConfig& config, chain::EventQueue& queue,
                     IncludeSink sink)
    : config_(config), ledger_(nullptr), queue_(&queue),
      sink_(std::move(sink)) {
  config_.validate();
  if (!sink_) {
    throw std::invalid_argument("FeeMarket: deferred mode needs a sink");
  }
}

std::uint64_t FeeMarket::park(Intent intent, double fee) {
  if (!(fee >= 0.0) || !std::isfinite(fee)) {
    throw std::invalid_argument("FeeMarket: fee must be finite and >= 0");
  }
  if (!(intent.deadline >= queue_->now())) {
    throw std::invalid_argument("FeeMarket: deadline is already past");
  }
  const std::uint64_t id = next_id_++;
  intents_.emplace(id, std::move(intent));
  order_.emplace(fee, id);
  if (intents_.size() > config_.mempool_capacity) {
    // Evict the worst bid; among equal fees the NEWEST goes (an incumbent
    // at the same price keeps its slot, first-come-first-kept).
    auto worst = order_.end();
    --worst;
    drop(worst->second, DropReason::kEvicted);
  }
  if (!intents_.empty()) ensure_seal_scheduled();
  return id;
}

std::uint64_t FeeMarket::submit(chain::TxPayload payload, double fee,
                                double inclusion_deadline,
                                IncludedCallback on_included,
                                DroppedCallback on_dropped) {
  if (ledger_ == nullptr) {
    throw std::logic_error(
        "FeeMarket::submit: deferred-inclusion mode uses submit_tagged");
  }
  return park(Intent{std::move(payload), fee, inclusion_deadline, 0,
                     std::move(on_included), std::move(on_dropped)},
              fee);
}

std::uint64_t FeeMarket::submit_tagged(std::uint64_t owner_tag,
                                       chain::TxPayload payload, double fee,
                                       double inclusion_deadline,
                                       DroppedCallback on_dropped) {
  if (ledger_ != nullptr) {
    throw std::logic_error(
        "FeeMarket::submit_tagged: ledger mode uses submit");
  }
  return park(Intent{std::move(payload), fee, inclusion_deadline, owner_tag,
                     {}, std::move(on_dropped)},
              fee);
}

bool FeeMarket::cancel(std::uint64_t intent_id) {
  const auto it = intents_.find(intent_id);
  if (it == intents_.end()) return false;
  order_.erase({it->second.fee, intent_id});
  intents_.erase(it);
  return true;
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
  // they never consume block space; notify in arrival order.
  std::vector<std::uint64_t> lapsed;
  for (const auto& [id, intent] : intents_) {
    if (intent.deadline < now) lapsed.push_back(id);
  }
  for (const std::uint64_t id : lapsed) drop(id, DropReason::kExpired);

  // Include the best block_capacity bids, forwarding each to the ledger at
  // seal time (confirmation clock starts here -- inclusion latency is the
  // fee market's whole effect).  Callbacks run after the mempool mutation
  // so an on_included that submits a follow-up intent sees clean state.
  // Deferred mode hands the whole block to the sink instead, in one call:
  // the owner submits each payload to its own ledger shard at this seal
  // time.
  std::vector<std::pair<IncludedCallback, chain::TxId>> ready;
  std::vector<Included> deferred;
  std::size_t filled = 0;
  while (!order_.empty() && filled < config_.block_capacity) {
    ++filled;
    const auto best = order_.begin();
    const auto it = intents_.find(best->second);
    Intent intent = std::move(it->second);
    order_.erase(best);
    intents_.erase(it);
    ++included_;
    fees_paid_ += intent.fee;
    if (ledger_ != nullptr) {
      const chain::TxId tx = ledger_->submit(std::move(intent.payload));
      if (intent.on_included) {
        ready.emplace_back(std::move(intent.on_included), tx);
      }
    } else {
      deferred.push_back({intent.owner_tag, std::move(intent.payload)});
    }
  }
  for (auto& [cb, tx] : ready) cb(tx);
  if (!deferred.empty()) sink_(deferred, now);
  if (!intents_.empty()) ensure_seal_scheduled();
}

void FeeMarket::drop(std::uint64_t id, DropReason reason) {
  const auto it = intents_.find(id);
  order_.erase({it->second.fee, id});
  DroppedCallback cb = std::move(it->second.on_dropped);
  intents_.erase(it);
  if (reason == DropReason::kEvicted) {
    ++evicted_;
  } else {
    ++expired_;
  }
  if (cb) {
    // Deliver through the queue at the current time: re-bids re-enter
    // submit() outside this mutation, in deterministic queue order.
    queue_->schedule_at(queue_->now(),
                        [cb = std::move(cb), reason] { cb(reason); });
  }
}

}  // namespace swapgame::market
