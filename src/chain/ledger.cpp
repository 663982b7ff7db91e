#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

#include "auditor.hpp"
#include "faults.hpp"
#include "obs/trace.hpp"

namespace swapgame::chain {

namespace {

/// Short payload tag for trace events.
const char* payload_name(const TxPayload& payload) noexcept {
  struct Visitor {
    const char* operator()(const TransferPayload&) const { return "transfer"; }
    const char* operator()(const DeployHtlcPayload&) const { return "deploy"; }
    const char* operator()(const ClaimHtlcPayload&) const { return "claim"; }
    const char* operator()(const RefundHtlcPayload&) const { return "refund"; }
    const char* operator()(const CancelHtlcPayload&) const { return "cancel"; }
    const char* operator()(const DepositCollateralPayload&) const {
      return "deposit";
    }
    const char* operator()(const ReleaseCollateralPayload&) const {
      return "release";
    }
  };
  return std::visit(Visitor{}, payload);
}

}  // namespace

const char* to_string(TxStatus status) noexcept {
  switch (status) {
    case TxStatus::kPending:
      return "pending";
    case TxStatus::kConfirmed:
      return "confirmed";
    case TxStatus::kFailed:
      return "failed";
    case TxStatus::kDropped:
      return "dropped";
  }
  return "unknown";
}

const char* to_string(HtlcState state) noexcept {
  switch (state) {
    case HtlcState::kLocked:
      return "locked";
    case HtlcState::kClaimed:
      return "claimed";
    case HtlcState::kRefunded:
      return "refunded";
    case HtlcState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* to_string(HtlcKind kind) noexcept {
  switch (kind) {
    case HtlcKind::kStandard:
      return "standard";
    case HtlcKind::kInverse:
      return "inverse";
  }
  return "unknown";
}

void ChainParams::validate() const {
  if (!(confirmation_time > 0.0) || !std::isfinite(confirmation_time)) {
    throw std::invalid_argument("ChainParams: confirmation_time must be > 0");
  }
  if (!(mempool_visibility > 0.0) || !std::isfinite(mempool_visibility)) {
    throw std::invalid_argument("ChainParams: mempool_visibility must be > 0");
  }
  if (!(mempool_visibility < confirmation_time)) {
    throw std::invalid_argument(
        "ChainParams: mempool_visibility must be < confirmation_time (Eq. 3)");
  }
  if (!(confirmation_jitter >= 0.0) || !std::isfinite(confirmation_jitter)) {
    throw std::invalid_argument(
        "ChainParams: confirmation_jitter must be >= 0");
  }
}

Ledger::Ledger(ChainParams params, EventQueue& queue, math::Xoshiro256* rng)
    : queue_(&queue) {
  reset(params, rng);
}

void Ledger::reset(ChainParams params, math::Xoshiro256* rng) {
  params.validate();
  if (params.confirmation_jitter > 0.0 && rng == nullptr) {
    throw std::invalid_argument(
        "Ledger: confirmation_jitter > 0 requires an RNG");
  }
  params_ = params;
  rng_ = rng;
  faults_ = nullptr;
  auditor_ = nullptr;
  trace_ = nullptr;
  while (!accounts_.empty()) {
    spare_accounts_.push_back(accounts_.extract(accounts_.begin()));
  }
  transactions_.clear();
  htlcs_.clear();
  vault_deposits_.clear();
  vault_total_ = Amount{};
  retired_balance_ = Amount{};
  confirmation_log_.clear();
  log_offset_ = 0;
  tx_retirements_.clear();
  htlc_retirements_.clear();
  htlc_retire_head_ = 0;
}

void Ledger::create_account(const Address& address, Amount initial_balance) {
  bool inserted = false;
  if (spare_accounts_.empty()) {
    inserted = accounts_.emplace(address.value, initial_balance).second;
  } else {
    // A node freed by reset(): its key string keeps its buffer.
    AccountTable::node_type node = std::move(spare_accounts_.back());
    spare_accounts_.pop_back();
    node.key() = address.value;
    node.mapped() = initial_balance;
    AccountTable::insert_return_type placed = accounts_.insert(std::move(node));
    inserted = placed.inserted;
    if (!inserted) spare_accounts_.push_back(std::move(placed.node));
  }
  if (!inserted) {
    throw std::invalid_argument("Ledger: account already exists: " + address.value);
  }
}

bool Ledger::has_account(const Address& address) const noexcept {
  return accounts_.find(address.value) != accounts_.end();
}

Amount Ledger::balance(const Address& address) const {
  const auto it = accounts_.find(address.value);
  if (it == accounts_.end()) {
    throw std::out_of_range("Ledger: unknown account: " + address.value);
  }
  return it->second;
}

TxId Ledger::submit(TxPayload payload) {
  const TxId id{transactions_.next_id()};
  Transaction tx;
  tx.id = id;
  tx.payload = std::move(payload);
  tx.submitted_at = queue_->now();
  // Assign the contract id a deploy will create, so the counterparty can be
  // pointed at it before confirmation.  Its slab slot stays held (empty)
  // until the deploy confirms or fails.
  if (std::holds_alternative<DeployHtlcPayload>(tx.payload)) {
    tx.created_contract = HtlcId{htlcs_.reserve()};
  }

  // Fault model (if attached): the submission may be dropped outright,
  // deferred past a censorship window, or tagged with extra delay.
  Hours mempool_entry = tx.submitted_at;
  Hours extra_delay = 0.0;
  if (faults_ != nullptr) {
    const FaultInjector::SubmissionFate fate =
        faults_->on_submit(tx.submitted_at);
    if (fate.dropped) {
      tx.status = TxStatus::kDropped;
      tx.failure_reason = "dropped: never reached the mempool";
      tx.visible_at = std::numeric_limits<Hours>::infinity();
      tx.confirmed_at = std::numeric_limits<Hours>::infinity();
      if (trace_ != nullptr) {
        trace_->record(tx.submitted_at, obs::TraceKind::kBroadcast,
                       {{"chain", to_string(params_.id)},
                        {"tx", id.value},
                        {"payload", payload_name(tx.payload)},
                        {"status", "dropped"}});
      }
      queue_tx_retirement({tx.submitted_at, id.value});
      if (tx.created_contract) htlcs_.release(tx.created_contract->value);
      transactions_.push(std::move(tx));
      return id;  // never scheduled for application
    }
    mempool_entry = fate.mempool_entry;
    extra_delay = fate.extra_delay;
  }

  tx.visible_at = mempool_entry + params_.mempool_visibility;
  // Constant base delay (paper assumption 1) plus optional uniform jitter
  // (relaxation used by the robustness experiments, bench X9).
  double delay = params_.confirmation_time;
  if (params_.confirmation_jitter > 0.0) {
    delay += params_.confirmation_jitter * math::uniform01(*rng_);
  }
  tx.confirmed_at = mempool_entry + delay + extra_delay;
  if (faults_ != nullptr) {
    tx.confirmed_at = faults_->delay_past_halts(tx.confirmed_at);
  }
  if (trace_ != nullptr) {
    trace_->record(tx.submitted_at, obs::TraceKind::kBroadcast,
                   {{"chain", to_string(params_.id)},
                    {"tx", id.value},
                    {"payload", payload_name(tx.payload)},
                    {"visible_at", tx.visible_at},
                    {"confirm_at", tx.confirmed_at}});
  }
  queue_tx_retirement({tx.confirmed_at, id.value});
  const Hours confirm_at = tx.confirmed_at;
  transactions_.push(std::move(tx));

  // A transaction retires only after its apply event has fired (or the
  // clock skipped it), so the record is still there.
  queue_->schedule_at(confirm_at,
                      [this, id] { apply(*transactions_.find(id.value)); });
  return id;
}

const Transaction& Ledger::transaction(TxId id) const {
  const Transaction* tx = transactions_.find(id.value);
  if (tx == nullptr) throw std::out_of_range("Ledger: unknown transaction");
  return *tx;
}

const Transaction* Ledger::find_transaction(TxId id) const noexcept {
  return transactions_.find(id.value);
}

const HtlcContract& Ledger::htlc(HtlcId id) const {
  const HtlcContract* contract = htlcs_.find(id.value);
  if (contract == nullptr) {
    throw std::out_of_range("Ledger: unknown HTLC contract");
  }
  return *contract;
}

const HtlcContract* Ledger::find_htlc(HtlcId id) const noexcept {
  return htlcs_.find(id.value);
}

HtlcId Ledger::pending_contract_of(TxId deploy_tx) const {
  const Transaction& tx = transaction(deploy_tx);
  if (!tx.created_contract) {
    throw std::invalid_argument("Ledger: transaction is not a deploy");
  }
  return *tx.created_contract;
}

std::vector<ObservedSecret> Ledger::visible_secrets() const {
  // A claim's preimage is extractable from its visibility on, even if the
  // claim later fails to confirm.
  const Hours now = queue_->now();
  std::vector<ObservedSecret> result;
  for (const Transaction& tx : transactions_) {
    if (tx.visible_at > now) continue;
    if (const auto* claim = std::get_if<ClaimHtlcPayload>(&tx.payload)) {
      result.push_back({claim->secret, claim->contract, tx.visible_at});
    }
  }
  return result;
}

const HtlcContract* Ledger::find_htlc_by_hash(
    const crypto::Digest256& hash) const noexcept {
  // "Most recently deployed" means highest deployed_at, which with
  // confirmation jitter is NOT the same as highest id (a later-submitted
  // deploy can confirm earlier); ties break towards the higher id.
  const HtlcContract* latest = nullptr;
  for (const HtlcContract& contract : htlcs_) {
    if (contract.hash_lock != hash) continue;
    if (latest == nullptr || contract.deployed_at > latest->deployed_at ||
        (contract.deployed_at == latest->deployed_at &&
         contract.id.value > latest->id.value)) {
      latest = &contract;
    }
  }
  return latest;
}

void Ledger::charge_collateral(const Address& depositor, Amount amount) {
  const auto it = accounts_.find(depositor.value);
  if (it == accounts_.end()) {
    throw std::out_of_range("charge_collateral: unknown account: " +
                            depositor.value);
  }
  if (it->second < amount) {
    throw std::invalid_argument("charge_collateral: insufficient funds");
  }
  it->second -= amount;
  vault_deposits_[depositor] += amount;
  vault_total_ += amount;
}

Amount Ledger::vault_deposit_of(const Address& depositor) const noexcept {
  const auto it = vault_deposits_.find(depositor);
  return it == vault_deposits_.end() ? Amount{} : it->second;
}

Amount Ledger::total_supply() const {
  Amount total;
  for (const auto& [addr, bal] : accounts_) total += bal;
  for (const HtlcContract& contract : htlcs_) {
    if (contract.state == HtlcState::kLocked) total += contract.amount;
  }
  total += vault_total_;
  total += retired_balance_;
  return total;
}

CompactionReport Ledger::compact(Hours watermark) {
  if (!std::isfinite(watermark)) {
    throw std::invalid_argument("Ledger::compact: non-finite watermark");
  }
  if (!(watermark < queue_->now())) {
    throw std::invalid_argument(
        "Ledger::compact: watermark must be strictly before now()");
  }
  CompactionReport report;
  report.watermark = watermark;
  if (auditor_ != nullptr) report.supply_before = total_supply();

  // Confirmed transactions enter the log in time order, so the retirable
  // entries are exactly a prefix.
  std::size_t cut = 0;
  while (cut < confirmation_log_.size()) {
    const Transaction* tx = transactions_.find(confirmation_log_[cut].value);
    if (tx == nullptr || tx->confirmed_at > watermark) break;
    ++cut;
  }
  if (cut > 0) {
    confirmation_log_.erase(confirmation_log_.begin(),
                            confirmation_log_.begin() + cut);
    log_offset_ += cut;
    report.log_truncated = cut;
  }

  // Settled contracts behind the watermark: settlement times follow the
  // clock, so they are a prefix of the FIFO.  Locked contracts are not in
  // it (their amounts are live supply and their refund path must stay
  // valid).
  while (htlc_retire_head_ < htlc_retirements_.size() &&
         htlc_retirements_[htlc_retire_head_].at <= watermark) {
    htlcs_.release(htlc_retirements_[htlc_retire_head_++].id);
    ++report.htlcs_retired;
  }
  // Drop the consumed prefix once it is at least half the FIFO, so each
  // entry is moved O(1) times amortized.
  if (htlc_retire_head_ * 2 >= htlc_retirements_.size()) {
    htlc_retirements_.erase(
        htlc_retirements_.begin(),
        htlc_retirements_.begin() +
            static_cast<std::ptrdiff_t>(htlc_retire_head_));
    htlc_retire_head_ = 0;
  }

  // Transactions whose lifecycle completed by the watermark: applied ones
  // (confirmed or failed -- their balance effects are in accounts_) and
  // dropped ones (never scheduled at all).  A transaction still pending
  // here could only be one whose apply event the clock skipped past
  // (EventQueue::advance_to); it keeps its record and its heap entry.
  std::vector<Retirement> still_pending;
  while (!tx_retirements_.empty() &&
         tx_retirements_.front().at <= watermark) {
    std::pop_heap(tx_retirements_.begin(), tx_retirements_.end(),
                  RetiresLater{});
    const Retirement next = tx_retirements_.back();
    tx_retirements_.pop_back();
    if (transactions_.find(next.id)->status == TxStatus::kPending) {
      still_pending.push_back(next);
      continue;
    }
    transactions_.release(next.id);
    ++report.transactions_retired;
  }
  for (const Retirement& r : still_pending) queue_tx_retirement(r);
  transactions_.reclaim();
  htlcs_.reclaim();

  if (auditor_ != nullptr) report.supply_after = total_supply();
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kCompaction,
                   {{"chain", to_string(params_.id)},
                    {"watermark", watermark},
                    {"txs", static_cast<std::uint64_t>(
                                report.transactions_retired)},
                    {"htlcs", static_cast<std::uint64_t>(report.htlcs_retired)},
                    {"log", static_cast<std::uint64_t>(report.log_truncated)}});
  }
  if (auditor_ != nullptr) auditor_->on_compaction(*this, report);
  return report;
}

void Ledger::retire_account(const Address& address) {
  const auto it = accounts_.find(address.value);
  if (it == accounts_.end()) {
    throw std::out_of_range("retire_account: unknown account: " +
                            address.value);
  }
  retired_balance_ += it->second;
  accounts_.erase(it);
}

void Ledger::apply(Transaction& tx) {
  std::visit(
      [this, &tx](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, TransferPayload>) {
          apply_transfer(tx, payload);
        } else if constexpr (std::is_same_v<T, DeployHtlcPayload>) {
          apply_deploy(tx, payload);
        } else if constexpr (std::is_same_v<T, ClaimHtlcPayload>) {
          apply_claim(tx, payload);
        } else if constexpr (std::is_same_v<T, RefundHtlcPayload>) {
          apply_refund(tx, payload);
        } else if constexpr (std::is_same_v<T, CancelHtlcPayload>) {
          apply_cancel(tx, payload);
        } else if constexpr (std::is_same_v<T, DepositCollateralPayload>) {
          apply_deposit(tx, payload);
        } else {
          apply_release(tx, payload);
        }
      },
      tx.payload);
  if (tx.status == TxStatus::kFailed && tx.created_contract) {
    htlcs_.release(tx.created_contract->value);  // the deploy failed
  }
  if (tx.status != TxStatus::kFailed) {
    tx.status = TxStatus::kConfirmed;
    confirmation_log_.push_back(tx.id);
    if (trace_ != nullptr) {
      trace_->record(queue_->now(), obs::TraceKind::kConfirm,
                     {{"chain", to_string(params_.id)},
                      {"tx", tx.id.value},
                      {"payload", payload_name(tx.payload)}});
    }
  } else if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kTxFailed,
                   {{"chain", to_string(params_.id)},
                    {"tx", tx.id.value},
                    {"payload", payload_name(tx.payload)},
                    {"reason", tx.failure_reason}});
  }
  if (auditor_ != nullptr) auditor_->on_transaction_applied(*this, tx);
}

void Ledger::fail(Transaction& tx, std::string_view reason,
                  std::string_view detail) {
  tx.status = TxStatus::kFailed;
  // Assigned in place: a record reused after reset() keeps the buffer.
  tx.failure_reason.assign(reason).append(detail);
}

void Ledger::queue_tx_retirement(Retirement entry) {
  tx_retirements_.push_back(entry);
  std::push_heap(tx_retirements_.begin(), tx_retirements_.end(),
                 RetiresLater{});
}

void Ledger::settle(HtlcContract& contract, HtlcState state) {
  contract.state = state;
  contract.settled_at = queue_->now();
  htlc_retirements_.push_back({contract.settled_at, contract.id.value});
}

void Ledger::apply_transfer(Transaction& tx, const TransferPayload& p) {
  const auto from = accounts_.find(p.from.value);
  const auto to = accounts_.find(p.to.value);
  if (from == accounts_.end() || to == accounts_.end()) {
    return fail(tx, "transfer: unknown account");
  }
  if (from->second < p.amount) {
    return fail(tx, "transfer: insufficient funds");
  }
  from->second -= p.amount;
  to->second += p.amount;
}

void Ledger::apply_deploy(Transaction& tx, const DeployHtlcPayload& p) {
  const auto sender = accounts_.find(p.sender.value);
  if (sender == accounts_.end()) {
    return fail(tx, "deploy: unknown sender");
  }
  if (!accounts_.contains(p.recipient.value)) {
    return fail(tx, "deploy: unknown recipient");
  }
  if (sender->second < p.amount) {
    return fail(tx, "deploy: insufficient funds");
  }
  if (!(p.expiry > queue_->now())) {
    return fail(tx, "deploy: expiry not in the future");
  }
  sender->second -= p.amount;

  HtlcContract contract;
  contract.id = *tx.created_contract;
  contract.sender = p.sender;
  contract.recipient = p.recipient;
  contract.amount = p.amount;
  contract.hash_lock = p.hash_lock;
  contract.kind = p.kind;
  contract.expiry = p.expiry;
  contract.deployed_at = queue_->now();
  const HtlcId id = contract.id;
  htlcs_.fill(id.value, std::move(contract));
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kHtlcDeployed,
                   {{"chain", to_string(params_.id)},
                    {"htlc", id.value},
                    {"contract", to_string(p.kind)},
                    {"sender", p.sender.value},
                    {"recipient", p.recipient.value},
                    {"amount", p.amount.tokens()},
                    {"expiry", p.expiry}});
  }
  schedule_auto_refund(id, p.expiry);
}

void Ledger::apply_claim(Transaction& tx, const ClaimHtlcPayload& p) {
  HtlcContract* const found = htlcs_.find(p.contract.value);
  if (found == nullptr) {
    return fail(tx, "claim: unknown contract");
  }
  HtlcContract& contract = *found;
  if (contract.state != HtlcState::kLocked) {
    return fail(tx, "claim: contract is ", to_string(contract.state));
  }
  // Claims must confirm at or before the time lock's expiry (paper Eq. (8):
  // t5 = t3 + tau_b <= t_b).
  if (queue_->now() > contract.expiry) {
    return fail(tx, "claim: time lock expired");
  }
  if (!p.secret.opens(contract.hash_lock)) {
    return fail(tx, "claim: wrong preimage");
  }
  // Standard lock: the preimage path pays the recipient.  Inverse escrow:
  // the depositor performed, so the preimage path refunds the sender.
  const Address& beneficiary = contract.kind == HtlcKind::kStandard
                                   ? contract.recipient
                                   : contract.sender;
  const auto account = accounts_.find(beneficiary.value);
  if (account == accounts_.end()) {
    return fail(tx, "claim: unknown beneficiary account");
  }
  settle(contract, HtlcState::kClaimed);
  contract.revealed_secret = p.secret;
  account->second += contract.amount;
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kHtlcClaimed,
                   {{"chain", to_string(params_.id)},
                    {"htlc", contract.id.value},
                    {"beneficiary", beneficiary.value},
                    {"amount", contract.amount.tokens()}});
  }
}

void Ledger::apply_refund(Transaction& tx, const RefundHtlcPayload& p) {
  HtlcContract* const found = htlcs_.find(p.contract.value);
  if (found == nullptr) {
    return fail(tx, "refund: unknown contract");
  }
  HtlcContract& contract = *found;
  if (contract.state != HtlcState::kLocked) {
    return fail(tx, "refund: contract is ", to_string(contract.state));
  }
  // The timeout path is only valid once the time lock has lapsed.
  if (queue_->now() < contract.expiry) {
    return fail(tx, "refund: time lock still active");
  }
  // Standard lock: timeout refunds the sender.  Inverse escrow: timeout
  // pays the recipient (the penalty fires).
  const Address& beneficiary = contract.kind == HtlcKind::kStandard
                                   ? contract.sender
                                   : contract.recipient;
  const auto account = accounts_.find(beneficiary.value);
  if (account == accounts_.end()) {
    return fail(tx, "refund: unknown beneficiary account");
  }
  settle(contract, HtlcState::kRefunded);
  account->second += contract.amount;
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kHtlcRefunded,
                   {{"chain", to_string(params_.id)},
                    {"htlc", contract.id.value},
                    {"beneficiary", beneficiary.value},
                    {"amount", contract.amount.tokens()}});
  }
}

void Ledger::apply_cancel(Transaction& tx, const CancelHtlcPayload& p) {
  HtlcContract* const found = htlcs_.find(p.contract.value);
  if (found == nullptr) {
    return fail(tx, "cancel: unknown contract");
  }
  HtlcContract& contract = *found;
  if (contract.kind != HtlcKind::kInverse) {
    return fail(tx, "cancel: only inverse escrows can be cancelled");
  }
  if (contract.state != HtlcState::kLocked) {
    return fail(tx, "cancel: contract is ", to_string(contract.state));
  }
  if (queue_->now() >= contract.expiry) {
    return fail(tx, "cancel: escrow already expired");
  }
  const auto sender = accounts_.find(contract.sender.value);
  if (sender == accounts_.end()) {
    return fail(tx, "cancel: unknown sender account");
  }
  settle(contract, HtlcState::kCancelled);
  sender->second += contract.amount;
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kHtlcCancelled,
                   {{"chain", to_string(params_.id)},
                    {"htlc", contract.id.value},
                    {"amount", contract.amount.tokens()}});
  }
}

void Ledger::apply_deposit(Transaction& tx, const DepositCollateralPayload& p) {
  const auto depositor = accounts_.find(p.depositor.value);
  if (depositor == accounts_.end()) {
    return fail(tx, "deposit: unknown account");
  }
  if (depositor->second < p.amount) {
    return fail(tx, "deposit: insufficient funds");
  }
  depositor->second -= p.amount;
  vault_deposits_[p.depositor] += p.amount;
  vault_total_ += p.amount;
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kVaultDeposit,
                   {{"chain", to_string(params_.id)},
                    {"depositor", p.depositor.value},
                    {"amount", p.amount.tokens()},
                    {"vault_total", vault_total_.tokens()}});
  }
}

void Ledger::apply_release(Transaction& tx, const ReleaseCollateralPayload& p) {
  const auto recipient = accounts_.find(p.recipient.value);
  if (recipient == accounts_.end()) {
    return fail(tx, "release: unknown recipient");
  }
  if (vault_total_ < p.amount) {
    return fail(tx, "release: vault underfunded");
  }
  // Attribution: a release first returns the recipient's own deposit; any
  // remainder is a forfeiture awarded from the other depositors, drawn in
  // ascending address order.  Deterministic, and keeps the per-depositor
  // breakdown summing to vault_total_ (the auditor's vault invariant).
  Amount remaining = p.amount;
  if (const auto own = vault_deposits_.find(p.recipient);
      own != vault_deposits_.end()) {
    const Amount take = std::min(own->second, remaining);
    own->second -= take;
    remaining -= take;
    if (own->second.is_zero()) vault_deposits_.erase(own);
  }
  for (auto it = vault_deposits_.begin();
       it != vault_deposits_.end() && !remaining.is_zero();) {
    const Amount take = std::min(it->second, remaining);
    it->second -= take;
    remaining -= take;
    it = it->second.is_zero() ? vault_deposits_.erase(it) : std::next(it);
  }
  vault_total_ -= p.amount;
  recipient->second += p.amount;
  if (trace_ != nullptr) {
    trace_->record(queue_->now(), obs::TraceKind::kVaultRelease,
                   {{"chain", to_string(params_.id)},
                    {"recipient", p.recipient.value},
                    {"amount", p.amount.tokens()},
                    {"vault_total", vault_total_.tokens()}});
  }
}

void Ledger::schedule_auto_refund(HtlcId id, Hours expiry) {
  // The contract refunds itself when the lock lapses: the refund transaction
  // enters the chain at expiry and confirms tau later, so the sender
  // receives funds at expiry + tau (paper Eqs. (10)/(11)).
  queue_->schedule_at(expiry, [this, id] { try_auto_refund(id, 0); });
}

void Ledger::try_auto_refund(HtlcId id, int attempt) {
  const HtlcContract* contract = find_htlc(id);
  if (contract == nullptr || contract->state != HtlcState::kLocked) return;
  const TxId refund = submit(RefundHtlcPayload{id, contract->sender});
  // Under a fault model the refund broadcast itself can be dropped; the
  // watcher retries each confirmation period.  The attempt cap bounds the
  // event queue at drop_prob = 1 (funds then stay locked, which
  // total_supply() still counts, so conservation holds regardless).
  constexpr int kMaxAutoRefundAttempts = 16;
  if (transactions_.find(refund.value)->status == TxStatus::kDropped &&
      attempt + 1 < kMaxAutoRefundAttempts) {
    queue_->schedule_at(
        queue_->now() + params_.confirmation_time,
        [this, id, attempt] { try_auto_refund(id, attempt + 1); });
  }
}

}  // namespace swapgame::chain
