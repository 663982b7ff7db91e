// Runtime invariant auditing of a Ledger.
//
// The InvariantAuditor hooks into the confirmation path (Ledger::apply
// notifies it after every applied transaction, failed or not) and checks
// the three invariants the substrate promises:
//
//   1. conservation of supply: total_supply() never deviates from its value
//      at attach time (minting only happens through create_account, which
//      legitimate protocol code never calls mid-run);
//   2. vault consistency: the per-depositor breakdown always sums to the
//      pool total (sum of vault_deposits == vault_total);
//   3. HTLC state-machine legality: contracts are created Locked, settle at
//      most once (Locked -> Claimed | Refunded | Cancelled), claims confirm
//      at or before expiry, refunds at or after, and cancels only hit
//      inverse escrows before expiry.
//
// Violations are recorded (and optionally thrown) with the offending
// transaction id and timestamp.  The auditor found two real accounting bugs
// on landing (a vault release that skipped the per-depositor map, and an
// iteration-order-dependent hash-lock lookup); see docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace swapgame::chain {

class InvariantAuditor {
 public:
  InvariantAuditor() = default;
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;
  ~InvariantAuditor() { detach(); }

  /// One recorded invariant breach.
  struct Violation {
    Hours at = 0.0;    ///< ledger time when the check fired
    TxId tx;           ///< the transaction whose application exposed it
    std::string what;  ///< human-readable description
  };

  /// Starts auditing `ledger`: snapshots the current supply as the
  /// conserved baseline and the current contracts as the known state, then
  /// registers itself on the confirmation path.  The auditor must stay
  /// alive while the ledger runs (it deregisters on destruction).
  void attach(Ledger& ledger);

  /// Stops auditing (no-op if not attached).
  void detach() noexcept;

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Number of applied transactions audited so far.
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }

  /// When set, a violation additionally throws std::logic_error (after
  /// being recorded), aborting the event-queue run at the first breach.
  void set_throw_on_violation(bool value) noexcept {
    throw_on_violation_ = value;
  }

  /// Confirmation-path hook; called by Ledger::apply.  Not for direct use.
  void on_transaction_applied(const Ledger& ledger, const Transaction& tx);

  /// Compaction hook; called by Ledger::compact after a sweep.  Checks that
  /// supply was conserved across the fold and that no contract disappeared
  /// while still locked (retiring locked funds would silently strand
  /// supply), then forgets the retired contracts so the per-transaction
  /// scan stays bounded by the live set.  Not for direct use.
  void on_compaction(const Ledger& ledger, const CompactionReport& report);

 private:
  struct HtlcSnapshot {
    std::uint64_t id = 0;  ///< HtlcId.value
    HtlcState state = HtlcState::kLocked;
    HtlcKind kind = HtlcKind::kStandard;
    Hours expiry = 0.0;
  };

  void record(const Ledger& ledger, const Transaction& tx, std::string what);

  Ledger* ledger_ = nullptr;
  Amount expected_supply_;
  // Ascending by id, like Ledger::htlcs(), so the per-transaction scan
  // walks both in step.  A vector: attach() keeps its capacity, so an
  // auditor re-attached per protocol Monte-Carlo sample stops allocating.
  std::vector<HtlcSnapshot> seen_;
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
  bool throw_on_violation_ = false;
};

}  // namespace swapgame::chain
