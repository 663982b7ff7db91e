// The one HTLC swap state machine behind every protocol entry point and
// every population session (src/proto and src/market/population).
//
// A swap graph is a cycle of HTLC legs.  Leg k pays legs[k].payee from
// legs[k].payer on its own chain; leg 0 is paid by party 0, the leader,
// each next leg is paid by the previous leg's payee, and the last leg pays
// the leader (Herlihy's lock/claim digraph; the paper's swap is the
// 2-cycle).  The machine runs it on an event queue:
//
//   initiate: the leader decides (Stage::kT1Initiate) and locks leg 0.
//   lock:     once leg k-1 confirms, its payee verifies it, decides
//             (Stage::kT2Lock) and locks leg k.
//   reveal:   once the last leg confirms, the secret holder acts.  The
//             leader verifies its incoming leg, decides (Stage::kT3Reveal)
//             and claims it, revealing the secret in that chain's mempool.
//             An outside witness instead claims every leg for its payee.
//   claim:    once a claim on leg k is mempool-visible, leg k's payer reads
//             the secret from it, decides (Stage::kT4Claim) and claims leg
//             k-1.
//
// Each epoch waits for what its actor observes, but never starts before
// the graph's idealized epoch (schedule->t2 for locks, t3 for the reveal,
// t4 for claims; no schedule means "as soon as observed").  Declined or
// missed steps leave locked legs to auto-refund at expiry.  The machine
// never moves funds itself: every flow is a ledger transaction.
//
// State and environment.  SwapMachine is one swap's state -- its graph,
// the hash lock, the latest broadcast of each leg's lock and claim, the
// outcome -- small enough to keep one per live session of a population
// run.  SwapEnv is what every swap on one clock shares: the event queue,
// one ledger per leg, the price feed, the run options and the SwapSink
// every transaction goes through.  The sink decides how a broadcast
// reaches its chain and reports back: SwapMachine::landed() once per
// broadcast that becomes a ledger transaction, give_up() when it stops
// trying.  A wait on a transaction that has not landed yet resumes when
// it lands; a transaction given up before it ever landed ends the swap
// (a lock: kFaultAborted; the reveal: kTimelockExpiredBoth; a later
// claim: kBobMissedT4).
//
//   * DirectRun hosts one swap (run_swap, the witness protocol, N-cycles).
//     It owns the queue and the ledgers, and its sink submits straight to
//     the leg's ledger and re-broadcasts a dropped transaction with
//     backoff until the leg's expiry.  Fault models and confirmation
//     jitter per leg, offline windows per party, invariant auditing, the
//     audit log, tracing and metrics all live here, as do the Section IV
//     collateral oracle and the Han et al. premium escrow (2-cycle
//     features: party 0 = Alice, party 1 = Bob, leg 0 on Chain_a).
//   * A population shard (market/population) hosts many sessions on one
//     ledger pair.  Its sink parks each transaction in the chain's
//     FeeMarket, submits it when a block includes it and re-bids on
//     eviction; inclusion deadlines and starvation are the sink's.
#pragma once

#include <cstddef>
#include <cstdint>
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
  std::uint32_t payer = 0;   ///< party index that locks the leg
  std::uint32_t payee = 0;   ///< party index that claims it
  double amount = 0.0;       ///< tokens locked
  chain::Hours expiry = 0.0; ///< HTLC time lock
};

/// One party of a swap graph.
struct SwapParty {
  chain::Address name;  ///< account name on every leg's chain
  agents::Strategy* strategy = nullptr;  ///< non-owning; outlives the run
  /// Windows in which the party cannot act; nullptr = always online.
  const std::vector<chain::FaultWindow>* offline = nullptr;
};

/// A swap graph: the cycle of legs, its parties and who holds the secret.
struct SwapGraph {
  std::span<const SwapLeg> legs;       ///< a cycle, see the file comment
  std::span<const SwapParty> parties;
  /// Idealized epochs: lower bounds for locks (t2), the reveal (t3) and
  /// claims (t4); the collateral oracle settles at t3 and t4.  nullptr =
  /// every epoch starts as soon as its actor observes what it waits for.
  const model::Schedule* schedule = nullptr;
  double p_star = 0.0;  ///< agreed rate quoted in decision contexts
  std::uint64_t secret_seed = 0;  ///< the secret holder's secret
  /// The owner's handle for the swap, handed back to the sink.
  std::uint64_t tag = 0;
  /// false: the leader holds the secret; true: an outside witness does.
  bool witness_holds_secret = false;
};

/// Which of a swap's transactions a broadcast is.  The premium escrow and
/// its settlement live on leg 0.
enum class TxRole : std::uint8_t {
  kDeploy,
  kClaim,
  kPremiumEscrow,
  kPremiumSettlement
};

class SwapMachine;

/// Where a swap's transactions go (see the file comment).
class SwapSink {
 public:
  virtual ~SwapSink() = default;
  /// Broadcasts `m`'s `role` transaction on leg `leg`'s chain.  `deadline`
  /// is the latest time it is of use.  Calls m.landed() for every
  /// broadcast that becomes a ledger transaction (possibly before
  /// returning) and m.give_up() if it stops trying.
  virtual void submit(SwapMachine& m, std::size_t leg, TxRole role,
                      chain::TxPayload payload, chain::Hours deadline) = 0;
};

/// Audit log of a one-swap environment: renders timestamped step lines
/// into the caller's vector.
struct AuditLog {
  explicit AuditLog(std::vector<std::string>& out) : lines(&out) {}

  std::vector<std::string>* lines;
  std::ostringstream line;  ///< reused for every line

  template <class... Parts>
  void add(chain::Hours now, const Parts&... parts) {
    line.str(std::string());
    line << "[t=" << now << "h] ";
    (line << ... << parts);
    lines->push_back(line.str());
  }
};

/// The latest broadcast of one transaction (id 0: none landed yet).
struct TrackedTx {
  chain::TxId id;
  bool abandoned = false;  ///< the sink stopped re-broadcasting it
};

/// What every swap on one clock shares (see the file comment).
struct SwapEnv {
  chain::EventQueue* queue = nullptr;
  std::span<chain::Ledger* const> ledgers;  ///< leg k's chain
  SwapSink* sink = nullptr;
  const PricePath* path = nullptr;  ///< prices quoted at decision epochs
  /// Run options read by the machine: collateral, premium, faults (the
  /// final reconciliation) and trace.
  const SwapSetup* setup = nullptr;
  AuditLog* audit = nullptr;  ///< nullptr = no audit lines
  /// The Section IV oracle and the Han et al. premium escrow (and its
  /// settlement) of the one 2-cycle on this clock (a DirectRun's).
  std::optional<CollateralOracle> oracle{};
  TrackedTx premium[2]{};
};

/// One swap's state.  The graph's spans, its strategies and the
/// environment must outlive the machine.
class SwapMachine {
 public:
  SwapMachine(const SwapGraph& graph, SwapEnv& env);
  SwapMachine(const SwapMachine&) = delete;
  SwapMachine& operator=(const SwapMachine&) = delete;

  /// The leader's t1 epoch (initiate); every later epoch runs on the
  /// environment's queue.
  void start();
  /// Sink report: broadcast `id` of the `role` transaction of `leg` is now
  /// on the leg's ledger.
  void landed(std::size_t leg, TxRole role, chain::TxId id);
  /// Sink report: the `role` transaction of `leg` will not be broadcast
  /// again.
  void give_up(std::size_t leg, TxRole role);
  /// Reconciles the outcome against the legs' final settlement (a swap
  /// alone on its ledgers, run to quiescence).
  void reconcile_outcome();

  [[nodiscard]] SwapOutcome outcome() const noexcept { return outcome_; }
  /// The leader chose to initiate at t1.
  [[nodiscard]] bool initiated() const noexcept { return initiated_; }
  [[nodiscard]] std::uint64_t tag() const noexcept { return graph_.tag; }
  /// Whether the leg's deploy reached its ledger.
  [[nodiscard]] bool deployed(std::size_t leg) const noexcept {
    return legs_[leg].deploy.id.value != 0;
  }
  /// The leg's contract, or nullptr when no deploy created one.
  [[nodiscard]] const chain::HtlcContract* contract(std::size_t leg) const;

 private:
  struct LegTx {
    TrackedTx deploy;
    TrackedTx claim;
    chain::HtlcId contract;
  };
  /// No wait outstanding (see awaiting_).
  static constexpr std::uint32_t kNoWait = ~std::uint32_t{0};

  template <class... Parts>
  void log(const Parts&... parts) {
    if (env_->audit != nullptr) env_->audit->add(env_->queue->now(), parts...);
  }

  [[nodiscard]] const SwapParty& party(std::size_t i) const {
    return graph_.parties[i];
  }
  [[nodiscard]] chain::Ledger& chain_of(std::size_t leg) const {
    return *env_->ledgers[leg];
  }
  [[nodiscard]] TrackedTx& slot(std::size_t leg, TxRole role);
  [[nodiscard]] crypto::Secret secret() const;
  [[nodiscard]] agents::DecisionContext context() const;
  model::Action decide(std::size_t who, agents::Stage stage);
  void broadcast(std::size_t leg, TxRole role, chain::TxPayload payload);

  /// Runs the epoch that follows `role` on `leg` once that transaction is
  /// confirmed (a lock) or mempool-visible (a claim), and not before the
  /// epoch's idealized time; resumes from landed() when it has not landed.
  void await(std::size_t leg, TxRole role);
  template <class Step>
  bool defer_while_offline(std::size_t who, Step step);

  void lock(std::size_t leg);
  void reveal();
  void witness_claims();
  void claim(std::size_t watched_leg);
  void cancel_premium_escrow();
  [[nodiscard]] bool verify(std::size_t leg) const;

  SwapGraph graph_;
  SwapEnv* env_;
  crypto::Digest256 hash_;
  // Leg records sit inline for the 2-cycle (the protocol Monte-Carlo runs
  // one per sample, a population one per session); longer cycles use the
  // heap.
  LegTx inline_legs_[2];
  std::unique_ptr<LegTx[]> heap_legs_;
  LegTx* legs_;  ///< inline_legs_ or heap_legs_
  std::uint32_t awaiting_ = kNoWait;  ///< leg * 4 + role of a pending wait
  SwapOutcome outcome_ = SwapOutcome::kNotInitiated;
  bool initiated_ = false;
};

/// How a DirectRun sets up one leg's chain.
struct LegChain {
  chain::ChainParams params;
  /// Opening balances of the leg's payer and payee (tokens).
  double payer_balance = 0.0;
  double payee_balance = 0.0;
  const chain::FaultModel* faults = nullptr;  ///< nullptr = none
};

/// An environment hosting one swap, and its direct sink (see the file
/// comment).  Reads from `setup`: collateral, premium, latency and fault
/// seeds, audit, trace, metrics and the audit_log sink.  The graph's
/// spans, the strategies, the path and the sink must outlive the run.
///
/// A DirectRun is also the workspace of run_swap and run_witness_swap:
/// reset() sets it up for the next swap, and its queue, ledgers and
/// auditors keep their capacity between swaps, so a protocol Monte-Carlo
/// chunk that keeps one runs its samples without rebuilding them.
class DirectRun final : public SwapSink {
 public:
  DirectRun() = default;
  DirectRun(const DirectRun&) = delete;
  DirectRun& operator=(const DirectRun&) = delete;

  /// Sets the run up for `graph` on `chains` (one per leg): empties the
  /// queue and the ledgers, opens the legs' accounts and attaches the
  /// setup's fault models, auditors and trace.  Every id, the clock, the
  /// event sequence and the latency and fault streams restart exactly as
  /// in a fresh DirectRun, whatever the previous swap did (a throw
  /// included).
  void reset(const SwapGraph& graph, std::span<const LegChain> chains,
             const SwapSetup& setup, const PricePath& path);

  /// Runs the swap to quiescence (every refund and oracle release done)
  /// and reconciles the outcome against the legs' final settlement.
  void run();

  [[nodiscard]] const SwapMachine& machine() const noexcept {
    return *machine_;
  }
  [[nodiscard]] chain::Hours now() const noexcept { return queue_.now(); }
  /// Final confirmed balance of `party` on `leg`'s chain (tokens).
  [[nodiscard]] double balance(std::size_t leg, std::size_t party) const;
  /// Every leg's chain still holds its opening supply.
  [[nodiscard]] bool conservation_ok() const;
  /// Fills `result`'s conservation and auditor verdicts and its fault
  /// telemetry.
  void report(SwapResult& result) const;

  void submit(SwapMachine& m, std::size_t leg, TxRole role,
              chain::TxPayload payload, chain::Hours deadline) override;

 private:
  /// Per-leg chain.  The auditor and injector follow the ledger so they
  /// are destroyed before it.
  struct LegRun {
    math::Xoshiro256 latency_rng;
    std::optional<chain::Ledger> ledger;
    std::optional<chain::FaultInjector> injector;
    chain::InvariantAuditor auditor;
    chain::Amount initial_supply;
  };

  void watch_broadcast(std::size_t leg, TxRole role, chain::TxId id,
                       chain::TxPayload payload, chain::Hours deadline,
                       int attempt);
  std::span<const SwapParty> parties_;
  const SwapSetup* setup_ = nullptr;
  chain::EventQueue queue_;
  // Chains sit inline for the 2-cycle, which the protocol Monte-Carlo runs
  // once per sample; longer cycles use the heap (grown, never shrunk).
  LegRun inline_legs_[2];
  std::unique_ptr<LegRun[]> heap_legs_;
  std::size_t heap_capacity_ = 0;
  std::span<LegRun> legs_;
  chain::Ledger* inline_ledgers_[2] = {nullptr, nullptr};
  std::unique_ptr<chain::Ledger*[]> heap_ledgers_;
  std::optional<AuditLog> audit_;  ///< engaged iff setup.audit_log is set
  SwapEnv env_;
  std::optional<SwapMachine> machine_;  ///< engaged by reset()
  int rebroadcasts_ = 0;
};

}  // namespace swapgame::proto
