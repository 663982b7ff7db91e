// Multi-party cyclic atomic swaps (Herlihy, PODC'18 -- paper Section II-C:
// "Herlihy provided a first extensive analysis of the scheme").
//
// N parties arranged in a cycle, each paying the next on its own chain:
// P_0 -> P_1 on chain 0, P_1 -> P_2 on chain 1, ..., P_{N-1} -> P_0 on
// chain N-1.  The leader P_0 generates the secret; locks are deployed
// forward along the cycle (each party locks only after its incoming lock
// is confirmed), and claims propagate backward from the leader:
//
//   lock phase:   P_0 locks, P_1 locks, ..., P_{N-1} locks
//   claim phase:  P_0 claims on chain N-1 (revealing the secret), then
//                 P_{N-1} claims on chain N-2, ..., P_1 claims on chain 0.
//
// Herlihy's timelock staircase: the k-th deployed lock must remain
// claimable until its claim -- the (2N-1-k)-th protocol step -- completes,
// so expiries DECREASE along the deployment order.  We provision each
// lock's expiry for its worst-case claim time plus a safety margin.
//
// The cycle runs on the same state machine as run_swap (swap_machine.hpp):
// each claimer learns the secret once the upstream claim is mempool-visible
// on its outgoing chain, so the two-party instance with tau_a = tau_b = tau
// and eps_b = eps is the paper's swap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agents/strategy.hpp"
#include "price_path.hpp"
#include "swap_protocol.hpp"

namespace swapgame::proto {

/// Per-party configuration of a cyclic swap.
struct HopParty {
  std::string name;      ///< account name, unique in the cycle
  double amount = 1.0;   ///< amount it locks for the next party (its chain)
  /// Decision rule consulted at its lock step (Stage::kT2Lock) and claim
  /// step (Stage::kT4Claim).  Non-owning; must outlive the run.
  agents::Strategy* strategy = nullptr;
};

/// Cycle-wide configuration.
struct MultihopSetup {
  std::vector<HopParty> parties;   ///< N >= 2
  double tau = 3.0;                ///< confirmation time, all chains (hours)
  double eps = 1.0;                ///< mempool visibility, all chains
  double safety_margin = 1.0;      ///< extra slack per expiry (hours)
  std::uint64_t secret_seed = 0xC1C1E;
};

/// Result of one cyclic-swap run.
struct MultihopResult {
  /// How the cycle ended, in the 2-party vocabulary: kSuccess (every leg
  /// claimed), kNotInitiated (the leader declined to lock), kBobDeclinedT2
  /// (another party declined to lock; all deployed legs refund),
  /// kAliceDeclinedT3 (the leader withheld the secret) or kBobMissedT4 (a
  /// party skipped its claim: it paid without being paid).
  SwapOutcome outcome = SwapOutcome::kNotInitiated;
  int locks_deployed = 0;   ///< how many parties locked before the abort
  int legs_claimed = 0;     ///< claimed legs (== N on commit)
  bool conservation_ok = false;  ///< per-chain supply invariants held
  /// Per-party net balance change on its outgoing chain (it pays) and its
  /// incoming chain (it is paid), in tokens.
  std::vector<double> paid;      ///< amount actually debited
  std::vector<double> received;  ///< amount actually credited
  std::vector<std::string> audit;
  double completion_time = 0.0;  ///< when the last claim confirmed
};

/// Runs one cyclic swap.  Every party with a null strategy behaves
/// honestly.  The price path is consulted for decision contexts (parties
/// see the same exogenous price signal).
[[nodiscard]] MultihopResult run_multihop_swap(const MultihopSetup& setup,
                                               const PricePath& path);

}  // namespace swapgame::proto
