// The HTLC atomic-swap protocol state machine (paper Sections II-B, III-B).
//
// Executes one swap between two Strategy-driven agents on two simulated
// ledgers following the idealized timeline of Eq. (13):
//
//   t1: Alice decides; on cont she generates the secret and deploys the
//       HTLC on Chain_a (amount P*, hash lock, expiry t_a).
//   t2 = t1 + tau_a: Bob verifies Alice's confirmed contract and decides;
//       on cont he deploys the mirrored HTLC on Chain_b (amount 1,
//       same hash, expiry t_b).
//   t3 = t2 + tau_b: Alice verifies Bob's confirmed contract and decides;
//       on cont she claims on Chain_b, revealing the secret.
//   t4 = t3 + eps_b: Bob reads the secret from Chain_b's mempool and
//       decides; on cont he claims on Chain_a.
//
// Declined or missed steps leave the deployed HTLCs to auto-refund at
// expiry (t7/t8 receipts).  The driver never moves funds itself -- every
// flow goes through ledger transactions -- and it checks ledger
// conservation after the run.
//
// The collateralized variant (Section IV) charges both agents Q into the
// Chain_a vault at t1 and lets a CollateralOracle settle it (see oracle.hpp).
//
// run_swap is the 2-cycle of the one HTLC state machine in swap_machine.hpp,
// which also runs the witness protocol (witness_protocol.hpp), N-party
// cycles (multihop_protocol.hpp) and every population session
// (market/population).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agents/strategy.hpp"
#include "chain/event_queue.hpp"
#include "chain/faults.hpp"
#include "chain/ledger.hpp"
#include "model/params.hpp"
#include "model/timeline.hpp"
#include "price_path.hpp"

namespace swapgame::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace swapgame::obs

namespace swapgame::proto {

/// How the swap ended.
enum class SwapOutcome : std::uint8_t {
  kNotInitiated,    ///< Alice stopped at t1; nothing ever hit a chain
  kBobDeclinedT2,   ///< Bob did not lock; Alice auto-refunded
  kAliceDeclinedT3, ///< Alice did not reveal; both auto-refunded
  kBobMissedT4,     ///< Bob failed to claim a revealed secret (irrational,
                    ///< offline, or his claim starved in a population's
                    ///< fee market): Alice received token-b AND gets
                    ///< token-a back
  kSuccess,         ///< both legs settled per Table I
  /// Atomicity violations reachable only with confirmation jitter
  /// (ChainParams::confirmation_jitter > 0), i.e. when the paper's
  /// constant-tau assumption 1 is relaxed (Zakhary et al.'s critique,
  /// Section II-C): one leg's claim confirmed, the other leg's missed its
  /// time lock.
  kAliceLostAtomicity,  ///< Alice revealed; Bob claimed token-a, but her
                        ///< token-b claim confirmed after t_b (refunded to
                        ///< Bob).  Alice lost her principal.
  kBobLostAtomicity,    ///< Alice's token-b claim confirmed, but Bob's
                        ///< token-a claim confirmed after t_a.  Bob lost.
  kTimelockExpiredBoth, ///< both claims missed their locks (extreme
                        ///< jitter), or the reveal never landed (swallowed
                        ///< by faults, or starved in a population's fee
                        ///< market): both legs refunded -- benign failure,
                        ///< atomicity preserved.
  kFaultAborted,        ///< a deploy never took effect: swallowed by the
                        ///< fault model (all re-broadcasts dropped /
                        ///< confirmed past expiry) or starved in a
                        ///< population's fee market.  The swap died on the
                        ///< wire, not by choice.
};

[[nodiscard]] const char* to_string(SwapOutcome outcome) noexcept;

/// Fault environment of one swap run (see chain/faults.hpp and
/// docs/FAULTS.md): per-chain fault models plus per-party offline windows.
/// Default-constructed = assumption-1 behaviour, bit-identical to a run
/// without any fault plumbing.
struct SwapFaults {
  chain::FaultModel chain_a;
  chain::FaultModel chain_b;
  /// While a party is inside an offline window it cannot act: its decision
  /// epochs are deferred to the window's end (possibly past an expiry, in
  /// which case the usual timeout paths fire).
  std::vector<chain::FaultWindow> alice_offline;
  std::vector<chain::FaultWindow> bob_offline;
  /// Seed for the fault draws, independent of secret/latency seeds.
  std::uint64_t seed = 0xFA017;

  [[nodiscard]] bool any() const noexcept {
    return chain_a.any() || chain_b.any() || !alice_offline.empty() ||
           !bob_offline.empty();
  }
};

/// Per-agent realized result, token-denominated.
struct AgentResult {
  double final_token_a = 0.0;  ///< final Chain_a balance (tokens)
  double final_token_b = 0.0;  ///< final Chain_b balance (tokens)
  double receipt_time = 0.0;   ///< when the agent's terminal asset unencumbered
  /// Realized discounted portfolio value at t1 (token-a numeraire): each
  /// terminal holding valued at its receipt time price and discounted at
  /// the agent's rate r.
  double realized_value = 0.0;
  /// realized_value scaled by (1 + alpha * S) -- the paper's Eq. (2)/(32)
  /// utility realized on this path.
  double realized_utility = 0.0;
};

/// Result of one protocol run.  Its timestamped step lines are not part
/// of it: they go to SwapSetup::audit_log when the caller passes one.
struct SwapResult {
  SwapOutcome outcome = SwapOutcome::kNotInitiated;
  bool success = false;
  AgentResult alice;
  AgentResult bob;
  model::Schedule schedule;          ///< the idealized timeline used
  bool conservation_ok = false;      ///< ledger supply invariant held
  double collateral = 0.0;           ///< Q used (0 = basic protocol)
  /// Collateral each agent got back (tokens); only meaningful when Q > 0.
  double alice_collateral_back = 0.0;
  double bob_collateral_back = 0.0;
  double premium = 0.0;              ///< pr used (0 = no premium escrow)
  /// Premium settlement (tokens): back to Alice, or forfeited to Bob.
  double alice_premium_back = 0.0;
  double bob_premium_gain = 0.0;
  /// InvariantAuditor verdict over both chains (always true when auditing
  /// is disabled via SwapSetup::audit = false).
  bool invariants_ok = true;
  std::vector<std::string> invariant_violations;
  /// Fault telemetry: submissions the fault model swallowed, and how many
  /// re-broadcasts the parties issued after detecting a drop.
  int dropped_txs = 0;
  int rebroadcasts = 0;
};

/// Static setup of one swap.
struct SwapSetup {
  model::SwapParams params;   ///< timings + (for utilities) preferences
  double p_star = 2.0;        ///< agreed exchange rate
  double collateral = 0.0;    ///< Q per agent (Section IV); 0 disables
  /// Han et al. premium pr escrowed by Alice on Chain_a in an inverse HTLC
  /// (Section II-C baseline); 0 disables.  Composes with collateral.
  double premium = 0.0;
  /// Extra spending balance beyond the swap amounts (lets failed paths and
  /// collateral charges never bounce for lack of funds).
  double alice_extra_token_a = 0.0;
  double bob_extra_token_a = 0.0;
  /// Seed for Alice's secret generation (deterministic runs).
  std::uint64_t secret_seed = 0x5ECE7;

  // --- Robustness knobs (bench X9): relax assumption 1. -------------------
  /// Per-transaction uniform extra confirmation delay on each chain
  /// (hours); 0 = the paper's constant-tau model.
  double confirmation_jitter_a = 0.0;
  double confirmation_jitter_b = 0.0;
  /// Extra slack added to both HTLC expiries beyond the idealized t_a/t_b
  /// (safety margin against jitter).  The refund receipts shift
  /// accordingly.
  double expiry_margin = 0.0;
  /// Seed for the confirmation-jitter draws.
  std::uint64_t latency_seed = 0x1A7E4C1;

  // --- Fault model (bench X14): relax assumption 1 beyond timing. ---------
  /// Crash faults, censorship, halts and party outages; default = none.
  /// When active, parties re-broadcast dropped transactions with backoff
  /// and realized values are computed from final ledger balances (see
  /// docs/FAULTS.md).
  SwapFaults faults;
  /// Attach an InvariantAuditor to both ledgers for the run (cheap; on by
  /// default).  Verdict lands in SwapResult::invariants_ok.
  bool audit = true;

  // --- Observability (docs/OBSERVABILITY.md). -----------------------------
  /// Structured event sink for this run: broadcasts, confirmations, HTLC
  /// settlements, fault injections and every agent decision epoch with its
  /// game-theoretic context.  nullptr (the default) disables tracing at
  /// zero cost (a single null check per would-be event).
  obs::TraceRecorder* trace = nullptr;
  /// Aggregate counters/histograms across runs (thread-safe; shareable by
  /// concurrent run_swap calls).  nullptr disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Audit sink: the run appends its timestamped step lines here ("[t=2h]
  /// t2: bob deployed HTLC on Chain_b ...", one per decision, deploy,
  /// claim, re-broadcast and reconciliation).  nullptr (the default)
  /// renders no line at all, which is what Monte-Carlo samples want: the
  /// lines cost more than the rest of a sample's bookkeeping.
  std::vector<std::string>* audit_log = nullptr;
};

class DirectRun;  // swap_machine.hpp

/// Runs one complete swap and returns the audited result.  Every run goes
/// through a workspace (the DirectRun of swap_machine.hpp: event queue,
/// ledgers, auditors); this overload builds a local one, so concurrent
/// calls are independent.
///
/// @param setup     swap terms; setup.params must validate.
/// @param alice     Alice's decision rule (Stage::kT1Initiate, kT3Reveal).
/// @param bob       Bob's decision rule (Stage::kT2Lock, kT4Claim).
/// @param path      token-b price observed at decision/receipt times.
[[nodiscard]] SwapResult run_swap(const SwapSetup& setup,
                                  agents::Strategy& alice,
                                  agents::Strategy& bob,
                                  const PricePath& path);

/// The same run in the caller's workspace, which keeps its capacity for
/// the next run (a protocol Monte-Carlo chunk keeps one for all its
/// samples).  The result is the same as with a fresh workspace, whatever
/// ran in it before; one workspace serves one thread at a time.
[[nodiscard]] SwapResult run_swap(const SwapSetup& setup,
                                  agents::Strategy& alice,
                                  agents::Strategy& bob,
                                  const PricePath& path,
                                  DirectRun& workspace);

}  // namespace swapgame::proto
