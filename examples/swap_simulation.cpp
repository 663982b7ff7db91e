// Full protocol simulation: watch one atomic swap execute step-by-step on
// the two simulated ledgers, under three market scenarios.
//
// Scenario 1: stable market -- rational agents complete the swap.
// Scenario 2: token-b crashes before t3 -- rational Alice abandons the
//             reveal (the "free American option" of Han et al., realized).
// Scenario 3: same crash, but with collateral Q = 0.6 -- the forfeiture
//             keeps Alice honest and the swap completes.
//
//   $ ./swap_simulation
#include <cstdio>
#include <string>
#include <vector>

#include "agents/rational.hpp"
#include "proto/swap_protocol.hpp"

namespace {

using namespace swapgame;

void run_scenario(const char* title, double collateral,
                  const proto::PricePath& path) {
  std::printf("\n=== %s ===\n", title);

  proto::SwapSetup setup;
  setup.params = model::SwapParams::table3_defaults();
  setup.p_star = 2.0;
  setup.collateral = collateral;

  // Equilibrium (threshold) strategies for the matching game.
  std::unique_ptr<agents::Strategy> alice, bob;
  if (collateral > 0.0) {
    alice = std::make_unique<agents::CollateralRationalStrategy>(
        agents::Role::kAlice, setup.params, setup.p_star, collateral);
    bob = std::make_unique<agents::CollateralRationalStrategy>(
        agents::Role::kBob, setup.params, setup.p_star, collateral);
  } else {
    alice = std::make_unique<agents::RationalStrategy>(
        agents::Role::kAlice, setup.params, setup.p_star);
    bob = std::make_unique<agents::RationalStrategy>(
        agents::Role::kBob, setup.params, setup.p_star);
  }

  std::vector<std::string> audit;
  setup.audit_log = &audit;
  const proto::SwapResult r = proto::run_swap(setup, *alice, *bob, path);

  for (const std::string& line : audit) std::printf("  %s\n", line.c_str());
  std::printf("  outcome: %s\n", to_string(r.outcome));
  std::printf("  alice: %.3f token-a, %.3f token-b (receipt t=%.1fh)\n",
              r.alice.final_token_a, r.alice.final_token_b,
              r.alice.receipt_time);
  std::printf("  bob:   %.3f token-a, %.3f token-b (receipt t=%.1fh)\n",
              r.bob.final_token_a, r.bob.final_token_b, r.bob.receipt_time);
  if (collateral > 0.0) {
    std::printf("  collateral returned: alice %.2f, bob %.2f (of %.2f each)\n",
                r.alice_collateral_back, r.bob_collateral_back, collateral);
  }
  std::printf("  realized utility: alice %.4f, bob %.4f\n",
              r.alice.realized_utility, r.bob.realized_utility);
  std::printf("  ledger conservation: %s\n", r.conservation_ok ? "ok" : "VIOLATED");
}

}  // namespace

int main() {
  std::printf("One swap, three markets (P* = 2, Table III timings).\n");

  const proto::ConstantPricePath stable(2.0);
  run_scenario("scenario 1: stable market, no collateral", 0.0, stable);

  // Token-b loses 40%% between Bob's lock (t2 = 3h) and Alice's reveal
  // decision (t3 = 7h): 1.2 < cutoff 1.481, so rational Alice walks.
  const proto::SteppedPricePath crash({{0.0, 2.0}, {5.0, 1.2}});
  run_scenario("scenario 2: token-b crash before t3, no collateral", 0.0,
               crash);

  // Same crash with Q = 0.6: the collateral cutoff drops to ~1.03 < 1.2,
  // so Alice reveals anyway and the swap completes.
  run_scenario("scenario 3: same crash, collateral Q = 0.6", 0.6, crash);

  std::printf(
      "\nTakeaway: collateral converts a rational defection into a completed\n"
      "swap by making the walk-away branch strictly worse (paper Section IV).\n");
  return 0;
}
