// The one HTLC swap state machine behind every protocol entry point
// (internal to src/proto).
//
// A swap graph is a cycle of HTLC legs.  Leg k pays legs[k].payee from
// legs[k].payer on its own chain; leg 0 is paid by party 0, the leader,
// each next leg is paid by the previous leg's payee, and the last leg pays
// the leader (Herlihy's lock/claim digraph; the paper's swap is the
// 2-cycle).  The machine runs it on one event queue:
//
//   initiate: the leader decides (Stage::kT1Initiate) and locks leg 0.
//   lock:     once leg k-1 confirms, its payee verifies it, decides
//             (Stage::kT2Lock) and locks leg k.
//   reveal:   once the last leg confirms, the secret holder acts.  The
//             leader verifies its incoming leg, decides (Stage::kT3Reveal)
//             and claims it, revealing the secret in that chain's mempool.
//             An outside witness instead claims every leg for its payee.
//   claim:    once a claim on leg k is mempool-visible, leg k's payer reads
//             the secret, decides (Stage::kT4Claim) and claims leg k-1.
//
// Each epoch waits for what its actor observes, but never starts before
// the graph's idealized epoch (schedule.t2 for locks, t3 for the reveal,
// t4 for claims; zero means "as soon as observed").  Declined or missed
// steps leave locked legs to auto-refund at expiry.  The machine never
// moves funds itself: every flow is a ledger transaction.
//
// Everything SwapSetup configures acts on the machine: fault models and
// confirmation jitter per leg, offline windows per party, re-broadcast of
// dropped transactions, invariant auditing, tracing and metrics.  The
// Section IV collateral oracle and the Han et al. premium escrow are
// 2-cycle features (party 0 = Alice, party 1 = Bob, leg 0 on Chain_a).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "agents/strategy.hpp"
#include "chain/auditor.hpp"
#include "chain/event_queue.hpp"
#include "chain/faults.hpp"
#include "chain/ledger.hpp"
#include "crypto/secret.hpp"
#include "model/timeline.hpp"
#include "oracle.hpp"
#include "price_path.hpp"
#include "swap_protocol.hpp"

namespace swapgame::proto {

/// One HTLC leg of a swap graph.
struct SwapLeg {
  chain::ChainParams chain;  ///< the leg's own ledger
  std::size_t payer = 0;     ///< party index that locks the leg
  std::size_t payee = 0;     ///< party index that claims it
  double amount = 0.0;       ///< tokens locked
  chain::Hours expiry = 0.0; ///< HTLC time lock
  /// Opening balances of payer and payee on the leg's chain (tokens).
  double payer_balance = 0.0;
  double payee_balance = 0.0;
  /// Fault model of the leg's chain; nullptr = none.
  const chain::FaultModel* faults = nullptr;
};

/// One party of a swap graph.
struct SwapParty {
  chain::Address name;
  agents::Strategy* strategy = nullptr;  ///< non-owning; outlives the run
  /// Windows in which the party cannot act; nullptr = always online.
  const std::vector<chain::FaultWindow>* offline = nullptr;
};

/// A swap graph: the cycle of legs, its parties and who holds the secret.
struct SwapGraph {
  std::span<const SwapLeg> legs;       ///< a cycle, see the file comment
  std::span<const SwapParty> parties;
  /// false: the leader holds the secret; true: an outside witness does.
  bool witness_holds_secret = false;
  /// Idealized epochs: lower bounds for locks (t2), the reveal (t3) and
  /// claims (t4); the collateral oracle settles at t3 and t4.
  model::Schedule schedule;
};

/// Executes one swap graph.  Reads from `setup`: p_star (decision
/// contexts), collateral, premium, the secret, latency and fault seeds,
/// audit, trace and metrics.  The graph's spans, the strategies and the
/// path must outlive the machine.
class SwapMachine {
 public:
  SwapMachine(const SwapGraph& graph, const SwapSetup& setup,
              const PricePath& path);
  SwapMachine(const SwapMachine&) = delete;
  SwapMachine& operator=(const SwapMachine&) = delete;

  /// Runs the swap to quiescence (every refund and oracle release done)
  /// and reconciles the outcome against the legs' final settlement.
  void run();

  [[nodiscard]] SwapOutcome outcome() const noexcept { return outcome_; }
  [[nodiscard]] chain::Hours now() const noexcept { return queue_.now(); }
  /// Final confirmed balance of `party` on `leg`'s chain (tokens).
  [[nodiscard]] double balance(std::size_t leg, std::size_t party) const;
  /// Whether the leg's deploy was broadcast.
  [[nodiscard]] bool deployed(std::size_t leg) const noexcept {
    return legs_[leg].deploy.has_value();
  }
  /// The leg's contract, or nullptr when its deploy never created one.
  [[nodiscard]] const chain::HtlcContract* contract(std::size_t leg) const;
  /// Every leg's chain still holds its opening supply.
  [[nodiscard]] bool conservation_ok() const;
  /// Fills `result`'s conservation and auditor verdicts and its fault
  /// telemetry.
  void report(SwapResult& result);
  /// The audit log (timestamped step lines).
  [[nodiscard]] std::vector<std::string> take_audit() {
    return std::move(audit_);
  }

 private:
  /// A transaction re-broadcast (with backoff) when the fault model drops
  /// it; `id` is the most recent broadcast.
  struct TrackedTx {
    chain::TxId id;
    int rebroadcasts = 0;
    bool abandoned = false;  ///< gave up re-broadcasting before the deadline
  };

  /// Per-leg runtime.  The auditor and injector follow the ledger so they
  /// are destroyed before it.
  struct LegRun {
    const SwapLeg* spec = nullptr;
    math::Xoshiro256 latency_rng;
    std::optional<chain::Ledger> ledger;
    std::optional<chain::FaultInjector> injector;
    chain::InvariantAuditor auditor;
    std::optional<TrackedTx> deploy;
    std::optional<TrackedTx> claim;
    chain::Amount initial_supply;
  };

  enum class WaitFor { kConfirmation, kVisibility };

  template <class... Parts>
  void log(const Parts&... parts) {
    log_line_.str(std::string());
    log_line_ << "[t=" << queue_.now() << "h] ";
    (log_line_ << ... << parts);
    audit_.push_back(log_line_.str());
  }

  [[nodiscard]] const SwapParty& party(std::size_t i) const {
    return graph_.parties[i];
  }
  [[nodiscard]] chain::Ledger& chain_of(std::size_t leg) {
    return *legs_[leg].ledger;
  }
  [[nodiscard]] agents::DecisionContext context() const;
  model::Action decide(std::size_t who, agents::Stage stage);

  TrackedTx& submit_tracked(std::optional<TrackedTx>& slot,
                            chain::Ledger& chain, chain::TxPayload payload,
                            chain::Hours deadline);
  void watch_broadcast(chain::Ledger& chain, TrackedTx* tracked,
                       chain::TxPayload payload, chain::Hours deadline,
                       int attempt);
  void advance_when(WaitFor what, std::size_t leg, const TrackedTx& tracked,
                    chain::Hours earliest, std::function<void()> step);
  template <class Step>
  bool defer_while_offline(std::size_t who, Step step);

  void initiate();
  void lock(std::size_t leg);
  void reveal();
  void witness_claims();
  void claim(std::size_t watched_leg);
  /// Schedules whatever follows the confirmation of leg `leg`'s lock.
  void after_lock(std::size_t leg);
  void cancel_premium_escrow();
  [[nodiscard]] bool verify(std::size_t leg);
  void reconcile_outcome();

  SwapGraph graph_;
  const SwapSetup* setup_;
  const PricePath* path_;
  chain::EventQueue queue_;
  // Leg runtimes sit inline for the 2-cycle, which the protocol
  // Monte-Carlo runs once per sample; longer cycles use the heap.
  LegRun inline_legs_[2];
  std::unique_ptr<LegRun[]> heap_legs_;
  std::span<LegRun> legs_;
  std::optional<CollateralOracle> oracle_;
  crypto::Secret secret_;
  crypto::Digest256 hash_;
  std::optional<TrackedTx> premium_escrow_;
  std::optional<TrackedTx> premium_settlement_;
  SwapOutcome outcome_ = SwapOutcome::kNotInitiated;
  int rebroadcasts_ = 0;
  std::vector<std::string> audit_;
  std::ostringstream log_line_;  ///< reused by log(): one stream per run
};

}  // namespace swapgame::proto
