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
//
// Layout.  The mempool is a flat pool of slots in arrival order (an
// intent's id is its arrival number, so pool order is id order), plus a
// heap of POD (fee, id, slot) keys with the worst bid on top.  An eviction
// pops the heap top and marks its slot dead; nothing else leaves the pool
// between seals.  Costs, for m resident intents and a block capacity c:
//
//   * submit: one slot append and one heap push, O(log m); an eviction
//     adds one heap pop, O(log m) -- never a scan;
//   * seal: one arrival-order walk drops the lapsed intents, the live
//     keys are ranked by nth_element + a sort of the best c, O(m + c log
//     c), and the pool is compacted and the heap rebuilt, O(m).
//
// Ids are unique, so the ranking is a strict order and every tie resolves
// exactly as an ordered set of (fee, id) would resolve it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

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
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t blocks_sealed() const noexcept {
    return blocks_sealed_;
  }
  [[nodiscard]] std::uint64_t included() const noexcept { return included_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::uint64_t expired() const noexcept { return expired_; }
  /// Sum of the fee bids of every included intent.
  [[nodiscard]] double fees_paid() const noexcept { return fees_paid_; }

 private:
  /// A pool slot: the intent, its arrival id, and whether it is still
  /// resident (false once evicted, until the next seal compacts the pool).
  struct Slot {
    Intent intent;
    std::uint64_t id = 0;
    bool live = true;
  };
  /// A bid's ranking key and the pool position of its slot.
  struct Key {
    double fee = 0.0;
    std::uint64_t id = 0;
    std::size_t pos = 0;
  };
  /// Priority order: highest fee first, oldest intent first among equal
  /// fees (id order doubles as arrival order).  As a heap comparator it
  /// puts the worst bid on top.
  struct BetterBid {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.id < b.id;
    }
  };

  void ensure_seal_scheduled();
  void seal_block();
  /// Takes the slot at `pos` out of the mempool and delivers its intent to
  /// the drop sink through the queue.
  void drop(std::size_t pos, DropReason reason);

  FeeMarketConfig config_;
  chain::EventQueue* queue_;
  BlockSink on_block_;
  DropSink on_drop_;
  std::vector<Slot> pool_;  ///< arrival order; dead slots until a seal
  std::vector<Key> worst_;  ///< heap of the live slots' keys, worst on top
  std::size_t pending_ = 0;  ///< live slots
  std::uint64_t next_id_ = 1;
  bool seal_scheduled_ = false;
  std::uint64_t blocks_sealed_ = 0;
  std::uint64_t included_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t expired_ = 0;
  double fees_paid_ = 0.0;
};

}  // namespace swapgame::market
