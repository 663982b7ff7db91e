// A simulated ledger (the paper's Chain_a or Chain_b).
//
// The ledger is driven by a shared EventQueue.  Every submitted transaction
// confirms after the chain's constant confirmation time tau (paper
// assumption 1) and becomes discoverable in the mempool after epsilon < tau
// (Eq. (3)).  HTLCs auto-refund at expiry: the refund transaction is
// submitted by the contract itself when the time lock lapses, so the sender
// receives funds back at expiry + tau, matching the paper's t7 = t_b + tau_b
// and t8 = t_a + tau_a receipt times (Eqs. (10), (11)).
//
// The ledger also hosts an oracle-controlled collateral vault (Section IV):
// deposits debit the depositor into the vault pool; only releases submitted
// through an Oracle capability move funds out.
//
// Retirement/compaction (population scale): by default every transaction,
// contract and confirmation-log entry is kept forever, which makes memory
// the wall at 10^6 sessions.  compact(watermark) retires records whose
// lifecycle completed at or before an epoch watermark strictly in the past
// -- settled HTLCs, applied/dropped transactions (their balance effects
// already live in the account table, so the fold is conservation-neutral
// by construction) -- and truncates the confirmed prefix of the log behind
// confirmation_log_offset().  retire_account() additionally folds a
// finished session's balance into one retained aggregate that
// total_supply() still counts.  The InvariantAuditor audits every sweep.
// visible_secrets() scans the live transactions: its one caller, the
// collateral oracle at t4, reads ledgers that carry one swap, and a claim
// retired by compact() leaves the scan with its record.
//
// Cost model.  Transactions and contracts live in id-indexed slabs
// (id_slab.hpp): a lookup by id is an index and a dereference, O(1).
// Accounts live in a hash table keyed by address: create, balance and
// retire are O(1) expected.  A compact() sweep costs O(records retired * log n), not
// O(records live): it pops retirement queues filled at submission and
// settlement (see compact()), frees each record and erases the slabs'
// retired prefix in amortized O(1) slot moves per record.  The
// collateral vault keeps an ordered map (releases attribute forfeits in
// address order); only collateral runs touch it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "event_queue.hpp"
#include "htlc_contract.hpp"
#include "id_slab.hpp"
#include "math/rng.hpp"
#include "transaction.hpp"
#include "types.hpp"

namespace swapgame::obs {
class TraceRecorder;
}  // namespace swapgame::obs

namespace swapgame::chain {

class FaultInjector;    // faults.hpp
class InvariantAuditor; // auditor.hpp

/// Static parameters of one chain.
struct ChainParams {
  ChainId id = ChainId::kChainA;
  Hours confirmation_time = 3.0;   ///< tau (mean/base confirmation time)
  Hours mempool_visibility = 1.0;  ///< epsilon, must satisfy epsilon < tau
  /// Maximum extra confirmation delay per transaction (uniform in
  /// [0, confirmation_jitter]), relaxing the paper's constant-tau
  /// assumption 1.  Requires an RNG to be supplied to the Ledger; 0 keeps
  /// confirmations deterministic.
  Hours confirmation_jitter = 0.0;

  /// Throws std::invalid_argument on non-positive times, epsilon >= tau or
  /// negative jitter.
  void validate() const;
};

/// A secret observed in the mempool (possibly before confirmation).
struct ObservedSecret {
  crypto::Secret secret;
  HtlcId contract;
  Hours visible_since = 0.0;
};

/// What one Ledger::compact() sweep retired.
struct CompactionReport {
  Hours watermark = 0.0;
  std::size_t transactions_retired = 0;
  std::size_t htlcs_retired = 0;
  std::size_t log_truncated = 0;
  /// total_supply() before/after the sweep; equal unless retirement broke
  /// conservation (the auditor's on_compaction check).  Computed only when
  /// an InvariantAuditor is attached -- their only consumer -- and left
  /// zero otherwise, since each sum walks every account.
  Amount supply_before;
  Amount supply_after;
};

class Ledger {
 public:
  /// The queue must outlive the ledger.  `rng` (optional) drives the
  /// per-transaction confirmation jitter and must outlive the ledger;
  /// required when params.confirmation_jitter > 0.
  Ledger(ChainParams params, EventQueue& queue,
         math::Xoshiro256* rng = nullptr);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Restarts the ledger as if freshly constructed on the same queue with
  /// `params` and `rng`: no accounts, records or vault, ids from 1, and no
  /// fault injector, auditor or trace attached.  The containers keep their
  /// capacity (the slabs keep their records as spares), so a ledger reused
  /// across protocol Monte-Carlo samples stops allocating once warm.  The
  /// queue must hold no event of this ledger any more (reset it first).
  /// Throws like the constructor, before changing anything.
  void reset(ChainParams params, math::Xoshiro256* rng = nullptr);

  [[nodiscard]] const ChainParams& params() const noexcept { return params_; }
  [[nodiscard]] Hours now() const noexcept { return queue_->now(); }

  /// Creates an account with an initial balance.  Throws if it exists.
  void create_account(const Address& address, Amount initial_balance);

  [[nodiscard]] bool has_account(const Address& address) const noexcept;

  /// Confirmed balance.  Throws std::out_of_range for unknown accounts.
  [[nodiscard]] Amount balance(const Address& address) const;

  /// Submits a transaction at the current simulation time.  Returns its id.
  /// The transaction confirms (and is validated) at now() + tau and becomes
  /// mempool-visible at now() + epsilon.
  TxId submit(TxPayload payload);

  /// Looks up a transaction by id; throws std::out_of_range if unknown.
  /// The reference (like every record reference or pointer below) stays
  /// valid until compact() retires the record.
  [[nodiscard]] const Transaction& transaction(TxId id) const;

  /// Looks up a transaction, or nullptr when the id is unknown -- which
  /// after a compact() sweep includes records legitimately retired.  Use
  /// this (not transaction()) on paths where retirement is expected.
  [[nodiscard]] const Transaction* find_transaction(TxId id) const noexcept;

  /// Looks up an HTLC by id; throws std::out_of_range if unknown.  Note
  /// that contracts are created at *confirmation* of their deploy tx.
  [[nodiscard]] const HtlcContract& htlc(HtlcId id) const;

  /// Looks up an HTLC, or nullptr when there is none under `id`: unknown,
  /// not yet deployed (its deploy still pending, or failed or dropped), or
  /// retired by compact().
  [[nodiscard]] const HtlcContract* find_htlc(HtlcId id) const noexcept;
  [[nodiscard]] bool has_htlc(HtlcId id) const noexcept {
    return find_htlc(id) != nullptr;
  }

  /// The contract id a deploy transaction will create upon confirmation
  /// (assigned eagerly at submission so counterparties can be told where to
  /// look).
  [[nodiscard]] HtlcId pending_contract_of(TxId deploy_tx) const;

  /// All secrets currently extractable by watching the mempool and the
  /// confirmed history: every ClaimHtlc transaction not yet retired by
  /// compact() with visible_at <= now(), ascending by id (a dropped claim
  /// never becomes visible).  This is how Bob learns Alice's secret at t4
  /// (Section II-B Step 3).
  [[nodiscard]] std::vector<ObservedSecret> visible_secrets() const;

  /// Finds the most recently deployed HTLC whose hash lock equals `hash`,
  /// or nullptr.  This is how the Oracle of Section IV recognizes the
  /// counterpart contract on the other chain without being told its id.
  [[nodiscard]] const HtlcContract* find_htlc_by_hash(
      const crypto::Digest256& hash) const noexcept;

  /// Collateral vault inspection.
  [[nodiscard]] Amount vault_deposit_of(const Address& depositor) const noexcept;
  [[nodiscard]] Amount vault_total() const noexcept { return vault_total_; }
  [[nodiscard]] const std::map<Address, Amount>& vault_deposits()
      const noexcept {
    return vault_deposits_;
  }

  /// Every contract created and not yet retired by compact(), ascending
  /// by id: a range of `const HtlcContract&` (read-only; used by the
  /// InvariantAuditor and tests).  Iteration walks the id window from the
  /// oldest unretired contract, so it also steps over retired ids inside
  /// it.  submit() and compact() invalidate its iterators.
  [[nodiscard]] const IdSlab<HtlcContract>& htlcs() const noexcept {
    return htlcs_;
  }

  /// Attaches a fault injector consulted on every submission (drops,
  /// censorship deferral, extra delays, halts); nullptr detaches.  The
  /// injector must outlive the ledger's use.  Without one, submissions
  /// follow the paper's assumption-1 behaviour exactly.
  void set_fault_injector(FaultInjector* faults) noexcept { faults_ = faults; }

  /// Registers an auditor notified after every applied transaction; nullptr
  /// detaches.  Use InvariantAuditor::attach rather than calling this
  /// directly (it also snapshots the baseline state).
  void set_auditor(InvariantAuditor* auditor) noexcept { auditor_ = auditor; }

  /// Attaches a structured trace sink recording broadcasts, confirmations
  /// and every HTLC/vault settlement (docs/OBSERVABILITY.md); nullptr
  /// (the default) disables tracing with no cost beyond a null check.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// The Section IV "special permission": the trusted contract charges the
  /// depositor synchronously (no confirmation delay), moving funds from the
  /// account into the vault.  Throws on insufficient balance.
  void charge_collateral(const Address& depositor, Amount amount);

  /// Conservation invariant: sum of account balances + funds locked in open
  /// HTLCs + vault pool + retired balances.  Constant across the life of
  /// the simulation (total minted supply); asserted by tests after every
  /// event and across every compaction sweep.  A full recomputation on
  /// every call, O(accounts + contracts): a running total would make the
  /// conservation checks built on it vacuous.
  [[nodiscard]] Amount total_supply() const;

  /// Epoch-based retirement: drops every record whose lifecycle completed
  /// at or before `watermark` -- settled (claimed/refunded/cancelled)
  /// HTLCs, applied or dropped transactions, and the confirmed prefix of
  /// the log.  The watermark must be strictly before now(): every event at
  /// times <= watermark has then already fired, so nothing scheduled can
  /// still look the records up at their own fire time.  Locked HTLCs and
  /// pending transactions always survive.  Conservation-neutral: applied
  /// balance effects already live in the account table and locked funds are
  /// never touched.  Notifies the auditor (on_compaction) and records a
  /// kCompaction trace event when sinks are attached.
  ///
  /// Cost: O((records retired + log entries truncated) * log n), plus two
  /// total_supply() sums when an auditor is attached.  Records still live
  /// are never visited: transactions wait in a min-heap keyed by retire
  /// time (submission for a dropped one, confirmation otherwise -- a heap
  /// because jitter and faults make confirmation times non-monotone in
  /// id), settled HTLCs in a FIFO (settlement follows the clock).  Each
  /// retired record is freed; the slabs then drop their retired prefix
  /// (amortized O(1) per record).
  CompactionReport compact(Hours watermark);

  /// Folds `address`'s balance into a retained aggregate (still counted by
  /// total_supply()) and erases the account record.  The caller guarantees
  /// no future transaction credits or debits the address -- a later lookup
  /// fails like any unknown account.  Throws std::out_of_range if unknown.
  void retire_account(const Address& address);

  /// Sum of balances folded by retire_account().
  [[nodiscard]] Amount retired_balance() const noexcept {
    return retired_balance_;
  }

  /// Confirmed transactions in confirmation order (audit trail).  After
  /// compaction this is the suffix starting at global index
  /// confirmation_log_offset().
  [[nodiscard]] const std::vector<TxId>& confirmation_log() const noexcept {
    return confirmation_log_;
  }

  /// Number of log entries truncated by compact() -- the global index of
  /// confirmation_log()[0].
  [[nodiscard]] std::size_t confirmation_log_offset() const noexcept {
    return log_offset_;
  }

  /// Number of transactions ever submitted (retired ones included).
  [[nodiscard]] std::size_t transaction_count() const noexcept {
    return static_cast<std::size_t>(transactions_.next_id() - 1);
  }

 private:
  /// A record's place in a retirement queue: the time its lifecycle
  /// completes (or will) and its id.
  struct Retirement {
    Hours at = 0.0;
    std::uint64_t id = 0;
  };
  struct RetiresLater {
    bool operator()(const Retirement& a, const Retirement& b) const noexcept {
      return a.at > b.at;
    }
  };

  void apply(Transaction& tx);
  void apply_transfer(Transaction& tx, const TransferPayload& p);
  void apply_deploy(Transaction& tx, const DeployHtlcPayload& p);
  void apply_claim(Transaction& tx, const ClaimHtlcPayload& p);
  void apply_refund(Transaction& tx, const RefundHtlcPayload& p);
  void apply_cancel(Transaction& tx, const CancelHtlcPayload& p);
  void apply_deposit(Transaction& tx, const DepositCollateralPayload& p);
  void apply_release(Transaction& tx, const ReleaseCollateralPayload& p);
  void fail(Transaction& tx, std::string_view reason,
            std::string_view detail = {});
  void queue_tx_retirement(Retirement entry);
  /// Moves a locked contract to its final state at now() and queues it for
  /// retirement.
  void settle(HtlcContract& contract, HtlcState state);
  void schedule_auto_refund(HtlcId id, Hours expiry);
  void try_auto_refund(HtlcId id, int attempt);

  ChainParams params_;
  EventQueue* queue_;
  math::Xoshiro256* rng_ = nullptr;
  FaultInjector* faults_ = nullptr;
  InvariantAuditor* auditor_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  // Keyed by Address::value: std::hash<std::string> makes the table cache
  // each node's hash, so a probe never rehashes the strings it passes.
  using AccountTable = std::unordered_map<std::string, Amount>;
  AccountTable accounts_;
  // Account nodes reset() took out of accounts_, for create_account() to
  // reuse.
  std::vector<AccountTable::node_type> spare_accounts_;
  IdSlab<Transaction> transactions_;  // by TxId.value
  IdSlab<HtlcContract> htlcs_;        // by HtlcId.value; held from the deploy
  std::map<Address, Amount> vault_deposits_;
  Amount vault_total_;
  Amount retired_balance_;
  std::vector<TxId> confirmation_log_;
  std::size_t log_offset_ = 0;
  // Retirement queues behind compact(): a RetiresLater min-heap of every
  // transaction record, and a FIFO of settled HTLCs whose consumed prefix
  // ends at htlc_retire_head_.  Vectors, so constructing a Ledger (many
  // short-lived ones per protocol Monte-Carlo run) allocates nothing.
  std::vector<Retirement> tx_retirements_;
  std::vector<Retirement> htlc_retirements_;
  std::size_t htlc_retire_head_ = 0;
};

}  // namespace swapgame::chain
