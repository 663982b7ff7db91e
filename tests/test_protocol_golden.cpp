// Golden pin over the HTLC protocol family: one SHA-256 over a fixed matrix
// of run_swap, run_witness_swap and run_multihop_swap executions.  Any
// change to an outcome, a balance, a realized value or receipt time, or to
// run_swap's audit log and trace bytes moves the digest.  The pin is the
// safety net for refactoring the protocol state machine: a rewrite that
// keeps it keeps every observable result.
//
// Deliberately outside the hash: the wording of the witness and cyclic
// swaps' audit logs, and the witness run's invariants_ok.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "agents/naive.hpp"
#include "crypto/sha256.hpp"
#include "model/params.hpp"
#include "obs/trace.hpp"
#include "proto/multihop_protocol.hpp"
#include "proto/price_path.hpp"
#include "proto/swap_protocol.hpp"
#include "proto/witness_protocol.hpp"

namespace swapgame::proto {
namespace {

using agents::Stage;

/// Feeds newline-terminated fields into one SHA-256.
class Golden {
 public:
  void text(std::string_view s) {
    sha_.update(s);
    sha_.update(std::string_view("\n"));
  }
  /// Doubles are hashed by bit pattern, so even a last-ulp change shows.
  void num(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    text(std::to_string(bits));
  }
  void count(long long v) { text(std::to_string(v)); }
  [[nodiscard]] std::string hex() { return sha_.finalize().to_hex(); }

 private:
  crypto::Sha256 sha_;
};

/// The cyclic swap's outcome under its SwapOutcome name.  The names of the
/// former MultihopOutcome enum map onto SwapOutcome (a lock decline by the
/// leader is kNotInitiated, by anyone else kBobDeclinedT2), so the pin is
/// the same whichever enum MultihopResult::outcome carries.
std::string cycle_outcome_name(const std::string& name, int locks_deployed) {
  if (name == "all-committed") return "success";
  if (name == "aborted-at-lock") {
    return locks_deployed == 0 ? "not-initiated" : "bob-declined-t2";
  }
  if (name == "leader-aborted") return "alice-declined-t3";
  if (name == "partial-claims") return "bob-missed-t4";
  return name;
}

const SteppedPricePath& price_path() {
  static const SteppedPricePath path(
      {{0.0, 2.0}, {2.5, 1.85}, {6.5, 2.2}, {9.0, 2.05}, {14.0, 1.95}});
  return path;
}

SwapSetup base_setup() {
  SwapSetup setup;
  setup.params = model::SwapParams::table3_defaults();
  setup.p_star = 2.0;
  return setup;
}

void hash_agent(Golden& g, const AgentResult& a) {
  g.num(a.final_token_a);
  g.num(a.final_token_b);
  g.num(a.receipt_time);
  g.num(a.realized_value);
  g.num(a.realized_utility);
}

void hash_two_party(Golden& g, const SwapResult& r) {
  g.text(to_string(r.outcome));
  g.count(r.success);
  hash_agent(g, r.alice);
  hash_agent(g, r.bob);
  for (double t : {r.schedule.t1, r.schedule.t2, r.schedule.t3, r.schedule.t4,
                   r.schedule.t5, r.schedule.t6, r.schedule.t7, r.schedule.t8,
                   r.schedule.t_a, r.schedule.t_b}) {
    g.num(t);
  }
  g.count(r.conservation_ok);
  g.num(r.collateral);
  g.num(r.alice_collateral_back);
  g.num(r.bob_collateral_back);
  g.num(r.premium);
  g.num(r.alice_premium_back);
  g.num(r.bob_premium_gain);
  g.count(r.dropped_txs);
  g.count(r.rebroadcasts);
}

/// One traced run_swap, hashed with its audit log and trace JSONL.
void swap_case(Golden& g, const std::string& label, SwapSetup setup,
               agents::Strategy& alice, agents::Strategy& bob) {
  obs::TraceRecorder trace;
  std::vector<std::string> audit;
  setup.trace = &trace;
  setup.audit_log = &audit;
  const SwapResult r = run_swap(setup, alice, bob, price_path());
  g.text("run_swap " + label);
  hash_two_party(g, r);
  g.count(r.invariants_ok);
  for (const std::string& v : r.invariant_violations) g.text(v);
  for (const std::string& line : audit) g.text(line);
  g.text(trace.to_jsonl());
}

void witness_case(Golden& g, const std::string& label,
                  agents::Strategy& alice, agents::Strategy& bob) {
  const SwapResult r =
      run_witness_swap(base_setup(), alice, bob, price_path());
  g.text("run_witness_swap " + label);
  hash_two_party(g, r);
}

/// A defector at `stage` for `party` (or nobody when party == -1) in an
/// n-cycle.
void cycle_case(Golden& g, std::size_t n, int party, Stage stage) {
  MultihopSetup setup;
  for (std::size_t i = 0; i < n; ++i) {
    setup.parties.push_back(
        {"p" + std::to_string(i), 1.0 + 0.5 * static_cast<double>(i), nullptr});
  }
  agents::DefectorStrategy defector(stage);
  if (party >= 0) {
    setup.parties[static_cast<std::size_t>(party)].strategy = &defector;
  }
  const MultihopResult r = run_multihop_swap(setup, price_path());
  g.text("run_multihop_swap n=" + std::to_string(n) +
         " party=" + std::to_string(party) +
         " stage=" + agents::to_string(stage));
  g.text(cycle_outcome_name(to_string(r.outcome), r.locks_deployed));
  g.count(r.locks_deployed);
  g.count(r.legs_claimed);
  g.count(r.conservation_ok);
  g.num(r.completion_time);
  for (double x : r.paid) g.num(x);
  for (double x : r.received) g.num(x);
}

SwapSetup faulted_setup(std::uint64_t seed) {
  SwapSetup setup = base_setup();
  setup.expiry_margin = 6.0;
  setup.faults.seed = seed;
  setup.faults.chain_a.drop_prob = 0.3;
  setup.faults.chain_b.drop_prob = 0.3;
  setup.faults.chain_a.extra_delay_prob = 0.3;
  setup.faults.chain_a.extra_delay_max = 2.0;
  setup.faults.chain_b.extra_delay_prob = 0.3;
  setup.faults.chain_b.extra_delay_max = 2.0;
  setup.faults.chain_b.censorship.push_back({2.5, 3.5});
  setup.faults.chain_a.halts.push_back({9.0, 10.5});
  setup.faults.alice_offline.push_back({5.5, 7.5});
  setup.faults.bob_offline.push_back({7.5, 8.5});
  return setup;
}

std::string golden_digest() {
  Golden g;
  agents::HonestStrategy honest;
  agents::DefectorStrategy stop_t1(Stage::kT1Initiate);
  agents::DefectorStrategy stop_t2(Stage::kT2Lock);
  agents::DefectorStrategy stop_t3(Stage::kT3Reveal);
  agents::DefectorStrategy stop_t4(Stage::kT4Claim);

  // run_swap: honest, and a defector at each of the four stages.
  swap_case(g, "honest", base_setup(), honest, honest);
  swap_case(g, "alice-t1", base_setup(), stop_t1, honest);
  swap_case(g, "bob-t2", base_setup(), honest, stop_t2);
  swap_case(g, "alice-t3", base_setup(), stop_t3, honest);
  swap_case(g, "bob-t4", base_setup(), honest, stop_t4);

  // Collateral (oracle settlement on every branch) and premium escrow.
  SwapSetup collateral = base_setup();
  collateral.collateral = 0.5;
  swap_case(g, "collateral honest", collateral, honest, honest);
  swap_case(g, "collateral bob-t1", collateral, honest, stop_t1);
  swap_case(g, "collateral bob-t2", collateral, honest, stop_t2);
  swap_case(g, "collateral alice-t3", collateral, stop_t3, honest);
  swap_case(g, "collateral bob-t4", collateral, honest, stop_t4);
  SwapSetup premium = base_setup();
  premium.premium = 0.1;
  swap_case(g, "premium honest", premium, honest, honest);
  swap_case(g, "premium bob-t2", premium, honest, stop_t2);
  swap_case(g, "premium alice-t3", premium, stop_t3, honest);
  swap_case(g, "premium bob-t4", premium, honest, stop_t4);
  SwapSetup both = collateral;
  both.premium = 0.1;
  swap_case(g, "collateral+premium honest", both, honest, honest);

  // Confirmation jitter: four regimes that between them reach success,
  // both one-sided atomicity losses and the benign double timeout.
  const double jitter_regimes[4][3] = {
      {0.5, 0.5, 0.0}, {0.5, 0.5, 2.0}, {0.0, 3.0, 1.0}, {1.5, 0.0, 0.5}};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const double* regime = jitter_regimes[seed % 4];
    SwapSetup jitter = base_setup();
    jitter.confirmation_jitter_a = regime[0];
    jitter.confirmation_jitter_b = regime[1];
    jitter.expiry_margin = regime[2];
    jitter.latency_seed = seed;
    swap_case(g, "jitter " + std::to_string(seed), jitter, honest, honest);
  }

  // Faults with offline windows, re-broadcasts and fault aborts.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    swap_case(g, "faults " + std::to_string(seed), faulted_setup(seed), honest,
              honest);
  }
  SwapSetup lossy = base_setup();
  lossy.faults.chain_a.drop_prob = 1.0;
  swap_case(g, "faults certain drop", lossy, honest, honest);
  SwapSetup faulted_collateral = faulted_setup(3);
  faulted_collateral.collateral = 0.5;
  faulted_collateral.faults.bob_offline.insert(
      faulted_collateral.faults.bob_offline.begin(), {0.0, 0.5});
  swap_case(g, "faults collateral", faulted_collateral, honest, honest);
  SwapSetup faulted_premium = faulted_setup(5);
  faulted_premium.premium = 0.1;
  swap_case(g, "faults premium bob-t2", faulted_premium, honest, stop_t2);

  // run_witness_swap: honest, Alice stops, Bob stops.
  witness_case(g, "honest", honest, honest);
  witness_case(g, "alice-t1", stop_t1, honest);
  witness_case(g, "bob-t2", honest, stop_t2);

  // run_multihop_swap: honest cycles, a defector at each lock position, a
  // skip at each claim position, and a withholding leader.
  for (std::size_t n : {2u, 3u, 5u}) {
    cycle_case(g, n, -1, Stage::kT1Initiate);
    cycle_case(g, n, 0, Stage::kT1Initiate);
    for (std::size_t i = 1; i < n; ++i) {
      cycle_case(g, n, static_cast<int>(i), Stage::kT2Lock);
    }
    for (std::size_t i = 1; i < n; ++i) {
      cycle_case(g, n, static_cast<int>(i), Stage::kT4Claim);
    }
    cycle_case(g, n, 0, Stage::kT3Reveal);
  }
  return g.hex();
}

TEST(ProtocolGolden, MatrixDigestIsPinned) {
  EXPECT_EQ(golden_digest(), "04f14571a0a1e32fce64f0b2ce07450cdda21e676af1a6384eb6ecae544da210");
}

TEST(ProtocolGolden, DigestIsDeterministic) {
  EXPECT_EQ(golden_digest(), golden_digest());
}

}  // namespace
}  // namespace swapgame::proto
