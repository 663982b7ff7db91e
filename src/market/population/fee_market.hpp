// A per-chain mempool fee market in front of the population's ledgers.
//
// The base Ledger models the paper's assumption 1 (every submission
// confirms after a constant tau) -- inclusion is free and unconditional.
// Population-scale runs break that idealization: 10^5 concurrent sessions
// compete for block space, so inclusion becomes a priority auction.  The
// FeeMarket sits between sessions and their ledgers:
//
//   * submit() parks an *intent* (owner tag + payload + fee bid +
//     inclusion deadline) in a bounded mempool instead of hitting a
//     ledger directly;
//   * every block_interval hours a block is sealed: the block_capacity
//     best intents (fee descending, arrival order tie-break) are handed
//     back, whole, to the block sink, whose owner submits each payload to
//     its ledger at SEAL time -- so confirmation follows the ledger's tau
//     from the seal, and fee pressure shows up as inclusion latency,
//     exactly the lever the paper's timelock analysis is sensitive to;
//   * when the mempool exceeds mempool_capacity, the worst intent (lowest
//     fee, newest first among ties) is evicted and handed back to the drop
//     sink, so sessions can re-bid with an escalated fee as their timelock
//     expiry approaches;
//   * intents whose deadline lapses before inclusion are dropped as
//     expired at the next seal.
//
// Fees are pure priority signals accounted in fees_paid() -- they are NOT
// moved on any ledger, so the ledgers' total_supply() conservation
// invariant is untouched.
//
// Determinism: everything runs on the shared EventQueue; block seals are
// scheduled lazily (only while intents are pending) so a drained queue
// terminates EventQueue::run().  Each drop reaches the drop sink through
// one queue event at the drop decision's time rather than synchronously,
// keeping re-bidding re-entrancy-free and the event order reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "chain/event_queue.hpp"
#include "chain/transaction.hpp"

namespace swapgame::market {

/// Static parameters of one chain's fee market.
struct FeeMarketConfig {
  double block_interval = 0.25;         ///< hours between block seals
  std::size_t block_capacity = 48;      ///< intents included per block
  std::size_t mempool_capacity = 1024;  ///< resident intents before eviction

  /// Throws std::invalid_argument on a non-positive interval or capacity.
  void validate() const;
};

/// Why an intent was dropped instead of included.
enum class DropReason : std::uint8_t {
  kEvicted,  ///< pushed out of a full mempool by better-paying intents
  kExpired,  ///< inclusion deadline lapsed before a block picked it up
};

[[nodiscard]] const char* to_string(DropReason reason) noexcept;

class FeeMarket {
 public:
  /// A parked transaction: what its owner submitted, and the tag that
  /// routes it back to them.
  struct Intent {
    chain::TxPayload payload;
    double fee = 0.0;
    double deadline = 0.0;
    std::uint64_t owner_tag = 0;
  };
  /// Called once per sealed block that included anything, at seal time,
  /// with the block's intents in inclusion order.  The payloads go BACK to
  /// their owners (the sink may move them out), who submit each to
  /// whatever ledger shard owns it -- which is what lets one global fee
  /// market arbitrate block space across per-shard ledgers.
  using BlockSink =
      std::function<void(std::span<Intent> block, double seal_time)>;
  /// Called (via the event queue, at the drop decision's simulation time)
  /// with an intent that was evicted or expired without inclusion, its
  /// payload handed back as submitted.
  using DropSink = std::function<void(std::uint64_t owner_tag,
                                      chain::TxPayload payload,
                                      DropReason reason)>;

  /// The queue must outlive the fee market.
  /// @throws std::invalid_argument on an invalid config or an empty sink.
  FeeMarket(const FeeMarketConfig& config, chain::EventQueue& queue,
            BlockSink on_block, DropSink on_drop);

  FeeMarket(const FeeMarket&) = delete;
  FeeMarket& operator=(const FeeMarket&) = delete;

  /// Parks an intent bidding `fee` (token-a, accounting-only) for inclusion
  /// in a block sealed no later than `inclusion_deadline`.  May trigger an
  /// eviction (possibly of this very intent) when the mempool is over
  /// capacity.
  /// @throws std::invalid_argument on negative/non-finite fee or a
  /// deadline before now.
  void submit(std::uint64_t owner_tag, chain::TxPayload payload, double fee,
              double inclusion_deadline);

  [[nodiscard]] const FeeMarketConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return intents_.size(); }
  [[nodiscard]] std::uint64_t blocks_sealed() const noexcept {
    return blocks_sealed_;
  }
  [[nodiscard]] std::uint64_t included() const noexcept { return included_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::uint64_t expired() const noexcept { return expired_; }
  /// Sum of the fee bids of every included intent.
  [[nodiscard]] double fees_paid() const noexcept { return fees_paid_; }

 private:
  /// Priority order: highest fee first, oldest intent first among equal
  /// fees (id order doubles as arrival order).
  struct BetterBid {
    bool operator()(const std::pair<double, std::uint64_t>& a,
                    const std::pair<double, std::uint64_t>& b) const noexcept {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };

  void ensure_seal_scheduled();
  void seal_block();
  void drop(std::uint64_t id, DropReason reason);

  FeeMarketConfig config_;
  chain::EventQueue* queue_;
  BlockSink on_block_;
  DropSink on_drop_;
  std::map<std::uint64_t, Intent> intents_;
  std::set<std::pair<double, std::uint64_t>, BetterBid> order_;
  std::uint64_t next_id_ = 1;
  bool seal_scheduled_ = false;
  std::uint64_t blocks_sealed_ = 0;
  std::uint64_t included_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t expired_ = 0;
  double fees_paid_ = 0.0;
};

}  // namespace swapgame::market
