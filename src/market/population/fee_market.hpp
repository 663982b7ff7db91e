// A per-chain mempool fee market in front of a chain::Ledger.
//
// The base Ledger models the paper's assumption 1 (every submission
// confirms after a constant tau) -- inclusion is free and unconditional.
// Population-scale runs break that idealization: 10^5 concurrent sessions
// compete for block space, so inclusion becomes a priority auction.  The
// FeeMarket interposes between sessions and the ledger:
//
//   * submit() parks an *intent* (payload + fee bid + inclusion deadline)
//     in a bounded mempool instead of hitting the ledger directly;
//   * every block_interval hours a block is sealed: the block_capacity
//     best intents (fee descending, arrival order tie-break) are forwarded
//     to Ledger::submit() and their owners notified with the TxId, so
//     confirmation still follows the ledger's tau from SEAL time --
//     fee pressure shows up as inclusion latency, exactly the lever the
//     paper's timelock analysis is sensitive to;
//   * when the mempool exceeds mempool_capacity, the worst intent (lowest
//     fee, newest first among ties) is evicted and its owner notified, so
//     sessions can re-bid with an escalated fee as their timelock expiry
//     approaches;
//   * intents whose deadline lapses before inclusion are dropped as
//     expired at the next seal.
//
// Fees are pure priority signals accounted in fees_paid() -- they are NOT
// moved on the ledger, so the ledger's total_supply() conservation
// invariant is untouched.
//
// Determinism: everything runs on the shared EventQueue; block seals are
// scheduled lazily (only while intents are pending) so a drained queue
// terminates EventQueue::run().  Drop notifications are delivered through
// the queue at the current time rather than synchronously, keeping
// re-bidding re-entrancy-free and the event order reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>

#include "chain/event_queue.hpp"
#include "chain/ledger.hpp"

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
  /// Called at seal time when the intent made it into a block; the payload
  /// is now a pending ledger transaction with the given id (its
  /// confirmed_at / visible_at are already known to the ledger).
  using IncludedCallback = std::function<void(chain::TxId)>;
  /// Called (via the event queue, at the drop decision's simulation time)
  /// when the intent was evicted or expired without inclusion.
  using DroppedCallback = std::function<void(DropReason)>;

  /// An intent a sealed block included, in deferred-inclusion mode.
  struct Included {
    std::uint64_t owner_tag = 0;  ///< the tag given to submit_tagged
    chain::TxPayload payload;
  };
  /// Deferred-inclusion sink (the parallel population engine): called once
  /// per sealed block that included anything, at seal time, with the block's
  /// intents in inclusion order.  It hands the payloads BACK to their owners
  /// instead of submitting to a ledger (the sink may move them out).  The
  /// owner routes each to whatever ledger shard owns the session and submits
  /// there -- which is what lets one global fee market arbitrate block space
  /// across per-shard ledgers.
  using IncludeSink =
      std::function<void(std::span<Included> block, double seal_time)>;

  /// Ledger and queue must outlive the fee market (the queue must be the
  /// one driving the ledger).
  FeeMarket(const FeeMarketConfig& config, chain::Ledger& ledger,
            chain::EventQueue& queue);

  /// Deferred-inclusion mode: no ledger; sealed intents are delivered to
  /// `sink` instead (see IncludeSink).  Submissions must use submit_tagged.
  FeeMarket(const FeeMarketConfig& config, chain::EventQueue& queue,
            IncludeSink sink);

  FeeMarket(const FeeMarket&) = delete;
  FeeMarket& operator=(const FeeMarket&) = delete;

  /// Parks an intent bidding `fee` (token-a, accounting-only) for inclusion
  /// in a block sealed no later than `inclusion_deadline`.  Returns the
  /// intent id.  May trigger an eviction (possibly of this very intent)
  /// when the mempool is over capacity.
  /// @throws std::invalid_argument on negative/non-finite fee or a
  /// deadline before now; std::logic_error in deferred-inclusion mode.
  std::uint64_t submit(chain::TxPayload payload, double fee,
                       double inclusion_deadline, IncludedCallback on_included,
                       DroppedCallback on_dropped);

  /// Deferred-mode submit: like submit(), but inclusion is delivered
  /// through the IncludeSink with `owner_tag` instead of a per-intent
  /// callback (drops still use the callback -- they carry no payload).
  /// @throws std::logic_error when constructed in ledger mode.
  std::uint64_t submit_tagged(std::uint64_t owner_tag, chain::TxPayload payload,
                              double fee, double inclusion_deadline,
                              DroppedCallback on_dropped);

  /// Withdraws a pending intent (no callback fires).  False if unknown or
  /// already included/dropped.
  bool cancel(std::uint64_t intent_id);

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
  struct Intent {
    chain::TxPayload payload;
    double fee = 0.0;
    double deadline = 0.0;
    std::uint64_t owner_tag = 0;  ///< deferred mode: routed through the sink
    IncludedCallback on_included;
    DroppedCallback on_dropped;
  };

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
  std::uint64_t park(Intent intent, double fee);

  FeeMarketConfig config_;
  chain::Ledger* ledger_;  ///< nullptr in deferred-inclusion mode
  chain::EventQueue* queue_;
  IncludeSink sink_;
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
