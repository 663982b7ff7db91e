#include "auditor.hpp"

#include <stdexcept>
#include <utility>

namespace swapgame::chain {

void InvariantAuditor::attach(Ledger& ledger) {
  detach();
  ledger_ = &ledger;
  expected_supply_ = ledger.total_supply();
  seen_.clear();
  violations_.clear();
  checks_ = 0;
  for (const HtlcContract& contract : ledger.htlcs()) {
    seen_.push_back({contract.id.value, contract.state, contract.kind,
                     contract.expiry});
  }
  ledger.set_auditor(this);
}

void InvariantAuditor::detach() noexcept {
  if (ledger_ != nullptr) {
    ledger_->set_auditor(nullptr);
    ledger_ = nullptr;
  }
}

void InvariantAuditor::record(const Ledger& ledger, const Transaction& tx,
                              std::string what) {
  violations_.push_back({ledger.now(), tx.id, what});
  if (throw_on_violation_) {
    throw std::logic_error("InvariantAuditor: " + std::move(what));
  }
}

void InvariantAuditor::on_compaction(const Ledger& ledger,
                                     const CompactionReport& report) {
  ++checks_;
  // Violations raised here carry TxId{0}: no single transaction is at
  // fault, the sweep itself is.
  const Transaction no_tx{};

  // Conservation across the fold, against both the attach-time baseline
  // and the sweep's own before/after snapshot.
  const Amount supply = ledger.total_supply();
  if (supply != expected_supply_) {
    record(ledger, no_tx,
           "compaction broke conservation: " + supply.to_string() +
               " != baseline " + expected_supply_.to_string());
  }
  if (report.supply_after != report.supply_before) {
    record(ledger, no_tx,
           "compaction changed supply: " + report.supply_before.to_string() +
               " -> " + report.supply_after.to_string());
  }

  // Every contract the ledger no longer knows must have been seen settled;
  // forget it so the per-transaction scan tracks the live set only.
  const auto retired = [&ledger](const HtlcSnapshot& snap) {
    return ledger.find_htlc(HtlcId{snap.id}) == nullptr;
  };
  for (const HtlcSnapshot& snap : seen_) {
    if (retired(snap) && snap.state == HtlcState::kLocked) {
      record(ledger, no_tx,
             "htlc " + std::to_string(snap.id) + " retired while locked");
    }
  }
  std::erase_if(seen_, retired);
}

void InvariantAuditor::on_transaction_applied(const Ledger& ledger,
                                              const Transaction& tx) {
  ++checks_;

  // 1. Conservation of supply.
  const Amount supply = ledger.total_supply();
  if (supply != expected_supply_) {
    record(ledger, tx,
           "supply not conserved: " + supply.to_string() + " != baseline " +
               expected_supply_.to_string());
  }

  // 2. Vault consistency: the per-depositor breakdown sums to the pool.
  Amount deposits;
  for (const auto& [depositor, amount] : ledger.vault_deposits()) {
    deposits += amount;
  }
  if (deposits != ledger.vault_total()) {
    record(ledger, tx,
           "vault inconsistent: sum(deposits) " + deposits.to_string() +
               " != vault_total " + ledger.vault_total().to_string());
  }

  // 3. HTLC state-machine legality, checked as a diff against the last
  // audited state (each applied tx touches at most one contract, but the
  // full scan keeps the check independent of that assumption).
  std::size_t at = 0;  // seen_[at] is the first snapshot with id >= id
  for (const HtlcContract& contract : ledger.htlcs()) {
    const std::uint64_t id = contract.id.value;
    const auto tag = [id] { return "htlc " + std::to_string(id) + ": "; };
    while (at < seen_.size() && seen_[at].id < id) ++at;
    if (at == seen_.size() || seen_[at].id != id) {
      if (contract.state != HtlcState::kLocked) {
        record(ledger, tx,
               tag() + "created in state " + to_string(contract.state));
      }
      seen_.insert(seen_.begin() + static_cast<std::ptrdiff_t>(at),
                   {id, contract.state, contract.kind, contract.expiry});
      continue;
    }
    HtlcSnapshot& snap = seen_[at];
    if (snap.state == contract.state) continue;
    if (snap.state != HtlcState::kLocked) {
      record(ledger, tx,
             tag() + std::string("illegal transition ") +
                 to_string(snap.state) + " -> " + to_string(contract.state));
    } else {
      switch (contract.state) {
        case HtlcState::kClaimed:
          if (contract.settled_at > contract.expiry) {
            record(ledger, tx, tag() + "claim confirmed after expiry");
          }
          break;
        case HtlcState::kRefunded:
          if (contract.settled_at < contract.expiry) {
            record(ledger, tx, tag() + "refund confirmed before expiry");
          }
          break;
        case HtlcState::kCancelled:
          if (contract.kind != HtlcKind::kInverse) {
            record(ledger, tx, tag() + "cancel of a non-inverse lock");
          } else if (contract.settled_at >= contract.expiry) {
            record(ledger, tx, tag() + "cancel at or after expiry");
          }
          break;
        case HtlcState::kLocked:
          break;  // unreachable: snap.state == kLocked was handled above
      }
    }
    snap.state = contract.state;
  }
}

}  // namespace swapgame::chain
