#include "swap_protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swap_machine.hpp"
#include "witness_protocol.hpp"

namespace swapgame::proto {

const char* to_string(SwapOutcome outcome) noexcept {
  switch (outcome) {
    case SwapOutcome::kNotInitiated:
      return "not-initiated";
    case SwapOutcome::kBobDeclinedT2:
      return "bob-declined-t2";
    case SwapOutcome::kAliceDeclinedT3:
      return "alice-declined-t3";
    case SwapOutcome::kBobMissedT4:
      return "bob-missed-t4";
    case SwapOutcome::kSuccess:
      return "success";
    case SwapOutcome::kAliceLostAtomicity:
      return "alice-lost-atomicity";
    case SwapOutcome::kBobLostAtomicity:
      return "bob-lost-atomicity";
    case SwapOutcome::kTimelockExpiredBoth:
      return "timelock-expired-both";
    case SwapOutcome::kFaultAborted:
      return "fault-aborted";
  }
  return "unknown";
}

namespace {

chain::ChainParams chain_a_params(const SwapSetup& setup) {
  // The model has no mempool-visibility parameter for Chain_a (nothing in
  // the game reads Chain_a's mempool); reuse eps_b where it fits, else
  // half the confirmation time.
  const model::SwapParams& p = setup.params;
  chain::ChainParams cp;
  cp.id = chain::ChainId::kChainA;
  cp.confirmation_time = p.tau_a;
  cp.mempool_visibility = p.eps_b < p.tau_a ? p.eps_b : 0.5 * p.tau_a;
  cp.confirmation_jitter = setup.confirmation_jitter_a;
  return cp;
}

chain::ChainParams chain_b_params(const SwapSetup& setup) {
  const model::SwapParams& p = setup.params;
  chain::ChainParams cp;
  cp.id = chain::ChainId::kChainB;
  cp.confirmation_time = p.tau_b;
  cp.mempool_visibility = p.eps_b;
  cp.confirmation_jitter = setup.confirmation_jitter_b;
  return cp;
}

/// Validates the swap terms shared by both 2-party entry points.
void validate_terms(const SwapSetup& setup, const char* caller) {
  setup.params.validate();
  if (!(setup.expiry_margin >= 0.0) || !std::isfinite(setup.expiry_margin)) {
    throw std::invalid_argument(std::string(caller) +
                                ": expiry_margin must be >= 0");
  }
  if (!(setup.p_star > 0.0) || !std::isfinite(setup.p_star)) {
    throw std::invalid_argument(std::string(caller) +
                                ": p_star must be positive");
  }
  if (!(setup.collateral >= 0.0) || !std::isfinite(setup.collateral)) {
    throw std::invalid_argument(std::string(caller) +
                                ": collateral must be >= 0");
  }
  if (!(setup.premium >= 0.0) || !std::isfinite(setup.premium)) {
    throw std::invalid_argument(std::string(caller) +
                                ": premium must be >= 0");
  }
}

/// Discount factor to t1 at rate r for a receipt at time t.
double disc(double r, double t1, double t) {
  return std::exp(-r * (t - t1));
}

void compute_realized_values(SwapResult& result, const SwapSetup& setup,
                             const model::Schedule& s,
                             const PricePath& path) {
  const model::SwapParams& p = setup.params;
  const double q = setup.collateral;
  const double p_star = setup.p_star;
  const double rA = p.alice.r;
  const double rB = p.bob.r;
  const auto price = [&path](double t) { return path.price_at(t); };

  const double pr = setup.premium;
  double alice_swap = 0.0, bob_swap = 0.0;       // swap asset flows
  double alice_coll = 0.0, bob_coll = 0.0;       // collateral flows
  double alice_coll_back = 0.0, bob_coll_back = 0.0;  // tokens, undiscounted
  double alice_prem = 0.0, bob_prem = 0.0;       // premium flows
  double alice_prem_back = 0.0, bob_prem_gain = 0.0;
  double alice_receipt = s.t1, bob_receipt = s.t1;

  const double oracle_t3_receipt = s.t3 + p.tau_a;
  const double oracle_t4_receipt = s.t4 + p.tau_a;
  // Premium escrow settlement receipt times: Alice's claim or the
  // watcher's cancel are submitted at t3 and confirm tau_a later; the
  // timeout path pays Bob at t_a + tau_a = t8.
  const double premium_alice_receipt = s.t3 + p.tau_a;
  const double premium_bob_receipt = s.t8;

  switch (result.outcome) {
    case SwapOutcome::kNotInitiated:
      alice_swap = p_star;
      bob_swap = price(s.t1);
      alice_coll = q;  // never charged
      bob_coll = q;
      alice_coll_back = q;
      bob_coll_back = q;
      alice_prem = pr;  // never escrowed
      alice_prem_back = pr;
      break;
    case SwapOutcome::kBobDeclinedT2:
      alice_swap = p_star * disc(rA, s.t1, s.t8);
      bob_swap = price(s.t2) * disc(rB, s.t1, s.t2);
      if (q > 0.0) {
        alice_coll = 2.0 * q * disc(rA, s.t1, oracle_t3_receipt);
        alice_coll_back = 2.0 * q;
      }
      if (pr > 0.0) {
        // Watcher cancels the escrow back to Alice.
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t8;
      bob_receipt = s.t2;
      break;
    case SwapOutcome::kAliceDeclinedT3:
      alice_swap = p_star * disc(rA, s.t1, s.t8);
      bob_swap = price(s.t7) * disc(rB, s.t1, s.t7);
      if (q > 0.0) {
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt) +
                   q * disc(rB, s.t1, oracle_t4_receipt);
        bob_coll_back = 2.0 * q;
      }
      if (pr > 0.0) {
        // The escrow times out at t_a and pays Bob at t8.
        bob_prem = pr * disc(rB, s.t1, premium_bob_receipt);
        bob_prem_gain = pr;
      }
      alice_receipt = s.t8;
      bob_receipt = s.t7;
      break;
    case SwapOutcome::kBobMissedT4:
      // Alice receives the token-b at t5 AND her token-a refund at t8;
      // Bob loses his principal entirely.
      alice_swap = price(s.t5) * disc(rA, s.t1, s.t5) +
                   p_star * disc(rA, s.t1, s.t8);
      bob_swap = 0.0;
      if (q > 0.0) {
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt);
        alice_coll = q * disc(rA, s.t1, oracle_t4_receipt);
        alice_coll_back = q;
        bob_coll_back = q;
      }
      if (pr > 0.0) {
        // Alice revealed and reclaimed her escrow.
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t8;
      bob_receipt = oracle_t3_receipt;
      break;
    case SwapOutcome::kTimelockExpiredBoth:
      // Both refunded: economics of a benign failure, except Alice did
      // fulfil her obligations, so her deposits come back.
      alice_swap = p_star * disc(rA, s.t1, s.t8);
      bob_swap = price(s.t7) * disc(rB, s.t1, s.t7);
      if (q > 0.0) {
        alice_coll = q * disc(rA, s.t1, oracle_t4_receipt);
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt);
        alice_coll_back = q;
        bob_coll_back = q;
      }
      if (pr > 0.0) {
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t8;
      bob_receipt = s.t7;
      break;
    case SwapOutcome::kAliceLostAtomicity:
      // Alice revealed but her claim missed t_b: Bob holds everything.
      // Receipt times are approximated by the idealized schedule (exact
      // per-run times vary with the jitter draws; balances are exact).
      alice_swap = 0.0;
      bob_swap = p_star * disc(rB, s.t1, s.t6) +
                 price(s.t7) * disc(rB, s.t1, s.t7);
      if (q > 0.0) {
        alice_coll = q * disc(rA, s.t1, oracle_t4_receipt);
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt);
        alice_coll_back = q;
        bob_coll_back = q;
      }
      if (pr > 0.0) {
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t1;
      bob_receipt = s.t7;
      break;
    case SwapOutcome::kBobLostAtomicity:
      // Bob's claim missed t_a: Alice holds both assets (same flows as
      // kBobMissedT4).
      alice_swap = price(s.t5) * disc(rA, s.t1, s.t5) +
                   p_star * disc(rA, s.t1, s.t8);
      bob_swap = 0.0;
      if (q > 0.0) {
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt);
        alice_coll = q * disc(rA, s.t1, oracle_t4_receipt);
        alice_coll_back = q;
        bob_coll_back = q;
      }
      if (pr > 0.0) {
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t8;
      bob_receipt = s.t1;
      break;
    case SwapOutcome::kFaultAborted:
      // Only reachable under an active fault model, which routes through
      // compute_faulted_values instead of this exact-flow accounting.
      break;
    case SwapOutcome::kSuccess:
      alice_swap = price(s.t5) * disc(rA, s.t1, s.t5);
      bob_swap = p_star * disc(rB, s.t1, s.t6);
      if (q > 0.0) {
        alice_coll = q * disc(rA, s.t1, oracle_t4_receipt);
        bob_coll = q * disc(rB, s.t1, oracle_t3_receipt);
        alice_coll_back = q;
        bob_coll_back = q;
      }
      if (pr > 0.0) {
        alice_prem = pr * disc(rA, s.t1, premium_alice_receipt);
        alice_prem_back = pr;
      }
      alice_receipt = s.t5;
      bob_receipt = s.t6;
      break;
  }

  const double sA = result.success ? p.alice.alpha : 0.0;
  const double sB = result.success ? p.bob.alpha : 0.0;
  result.alice.realized_value = alice_swap + alice_coll + alice_prem;
  result.bob.realized_value = bob_swap + bob_coll + bob_prem;
  // Per Eq. (32) side deposits (collateral, premium) are not
  // premium-scaled.
  result.alice.realized_utility =
      (1.0 + sA) * alice_swap + alice_coll + alice_prem;
  result.bob.realized_utility = (1.0 + sB) * bob_swap + bob_coll + bob_prem;
  result.alice.receipt_time = alice_receipt;
  result.bob.receipt_time = bob_receipt;
  result.alice_collateral_back = alice_coll_back;
  result.bob_collateral_back = bob_coll_back;
  result.alice_premium_back = alice_prem_back;
  result.bob_premium_gain = bob_prem_gain;
}

/// Valuation under an active fault model.  Re-broadcasts, deferred
/// mempool entries and halts shift every settlement time, so the exact
/// per-outcome receipt algebra above no longer applies.  Instead each
/// party's FINAL ledger holdings are valued: token-a at face value,
/// token-b at the price of the party's terminal receipt epoch
/// (approximated by the idealized schedule), discounted to t1; the
/// utility premium (1 + alpha) applies on success per Eq. (2)/(32).
/// Oracle-released collateral is already inside the final balances; the
/// per-component *_back breakdowns are not attributed under faults.
void compute_faulted_values(SwapResult& result, const SwapSetup& setup,
                            const model::Schedule& s, const PricePath& path) {
  const model::SwapParams& p = setup.params;
  const auto price = [&path](double t) { return path.price_at(t); };

  // Terminal receipt epochs: success settles at t5/t6, a never-initiated
  // swap leaves everything liquid at t1, every failure path waits out the
  // last refund (t8 for Alice's chain-a lock, t7 for Bob's chain-b lock).
  double alice_receipt = s.t8;
  double bob_receipt = s.t7;
  if (result.outcome == SwapOutcome::kNotInitiated) {
    alice_receipt = s.t1;
    bob_receipt = s.t1;
  } else if (result.outcome == SwapOutcome::kSuccess) {
    alice_receipt = s.t5;
    bob_receipt = s.t6;
  }

  const double alice_value =
      (result.alice.final_token_a +
       result.alice.final_token_b * price(alice_receipt)) *
      disc(p.alice.r, s.t1, alice_receipt);
  const double bob_value =
      (result.bob.final_token_a +
       result.bob.final_token_b * price(bob_receipt)) *
      disc(p.bob.r, s.t1, bob_receipt);
  const double sA = result.success ? p.alice.alpha : 0.0;
  const double sB = result.success ? p.bob.alpha : 0.0;
  result.alice.realized_value = alice_value;
  result.bob.realized_value = bob_value;
  result.alice.realized_utility = (1.0 + sA) * alice_value;
  result.bob.realized_utility = (1.0 + sB) * bob_value;
  result.alice.receipt_time = alice_receipt;
  result.bob.receipt_time = bob_receipt;
}

/// Runs the paper's 2-cycle -- leg 0: Alice locks P* token-a for Bob on
/// Chain_a until t_a; leg 1: Bob locks 1 token-b for Alice on Chain_b until
/// t_b -- and values the outcome on `path`.
SwapResult run_two_cycle(const SwapSetup& setup, agents::Strategy& alice,
                         agents::Strategy& bob, const PricePath& path,
                         DirectRun& run, const model::Schedule& schedule,
                         bool witness_holds_secret) {
  const double q = setup.collateral;
  const SwapLeg legs[2] = {{0, 1, setup.p_star, schedule.t_a},
                           {1, 0, 1.0, schedule.t_b}};
  const LegChain chains[2] = {
      {chain_a_params(setup),
       setup.p_star + q + setup.premium + setup.alice_extra_token_a,
       q + setup.bob_extra_token_a, &setup.faults.chain_a},
      {chain_b_params(setup), 1.0, 0.0, &setup.faults.chain_b}};
  const SwapParty parties[2] = {
      {{"alice"}, &alice, &setup.faults.alice_offline},
      {{"bob"}, &bob, &setup.faults.bob_offline}};
  run.reset({legs, parties, &schedule, setup.p_star, setup.secret_seed,
             /*tag=*/0, witness_holds_secret},
            chains, setup, path);
  run.run();

  SwapResult result;
  result.outcome = run.machine().outcome();
  result.success = result.outcome == SwapOutcome::kSuccess;
  result.schedule = schedule;
  result.collateral = setup.collateral;
  result.premium = setup.premium;
  result.alice.final_token_a = run.balance(0, 0);
  result.alice.final_token_b = run.balance(1, 0);
  result.bob.final_token_a = run.balance(0, 1);
  result.bob.final_token_b = run.balance(1, 1);
  run.report(result);
  if (setup.faults.any()) {
    compute_faulted_values(result, setup, schedule, path);
  } else {
    compute_realized_values(result, setup, schedule, path);
  }
  if (setup.trace != nullptr) {
    setup.trace->record(run.now(), obs::TraceKind::kOutcome,
                        {{"outcome", to_string(result.outcome)},
                         {"success", result.success},
                         {"alice_utility", result.alice.realized_utility},
                         {"bob_utility", result.bob.realized_utility},
                         {"dropped_txs", result.dropped_txs},
                         {"rebroadcasts", result.rebroadcasts},
                         {"conservation_ok", result.conservation_ok},
                         {"invariants_ok", result.invariants_ok}});
  }
  if (setup.metrics != nullptr) {
    obs::MetricsRegistry& m = *setup.metrics;
    m.counter("swap.runs").inc();
    m.counter(std::string("swap.outcome.") + to_string(result.outcome)).inc();
    if (result.dropped_txs > 0) {
      m.counter("swap.dropped_txs")
          .inc(static_cast<std::uint64_t>(result.dropped_txs));
    }
    if (result.rebroadcasts > 0) {
      m.counter("swap.rebroadcasts")
          .inc(static_cast<std::uint64_t>(result.rebroadcasts));
    }
    if (!result.conservation_ok) m.counter("swap.conservation_failures").inc();
    if (!result.invariants_ok) m.counter("swap.invariant_failures").inc();
    // Realized-utility range: the paper's Table III utilities live well
    // inside [-4, 12) for every bench configuration.
    m.histogram("swap.alice_utility", -4.0, 12.0, 32)
        .observe(result.alice.realized_utility);
    m.histogram("swap.bob_utility", -4.0, 12.0, 32)
        .observe(result.bob.realized_utility);
  }
  return result;
}

}  // namespace

SwapResult run_swap(const SwapSetup& setup, agents::Strategy& alice,
                    agents::Strategy& bob, const PricePath& path) {
  DirectRun workspace;
  return run_swap(setup, alice, bob, path, workspace);
}

SwapResult run_swap(const SwapSetup& setup, agents::Strategy& alice,
                    agents::Strategy& bob, const PricePath& path,
                    DirectRun& workspace) {
  validate_terms(setup, "run_swap");
  // Shift the HTLC expiries (and thus the failure-path receipts) by the
  // safety margin; decision epochs stay on the idealized schedule.
  model::Schedule schedule = model::idealized_schedule(setup.params, 0.0);
  schedule.t_a += setup.expiry_margin;
  schedule.t_b += setup.expiry_margin;
  schedule.t7 = schedule.t_b + setup.params.tau_b;
  schedule.t8 = schedule.t_a + setup.params.tau_a;
  return run_two_cycle(setup, alice, bob, path, workspace, schedule, false);
}

SwapResult run_witness_swap(const SwapSetup& setup, agents::Strategy& alice,
                            agents::Strategy& bob, const PricePath& path) {
  DirectRun workspace;
  return run_witness_swap(setup, alice, bob, path, workspace);
}

SwapResult run_witness_swap(const SwapSetup& setup, agents::Strategy& alice,
                            agents::Strategy& bob, const PricePath& path,
                            DirectRun& workspace) {
  validate_terms(setup, "run_witness_swap");
  if (setup.collateral > 0.0 || setup.premium > 0.0) {
    throw std::invalid_argument(
        "run_witness_swap: the witness protocol takes no collateral or "
        "premium");
  }
  // No mempool-visibility step: the witness claims both legs at t3, the
  // moment Bob's lock confirms.
  const model::SwapParams& p = setup.params;
  model::Schedule s;
  s.t2 = p.tau_a;
  s.t3 = s.t2 + p.tau_b;
  s.t4 = s.t3;
  s.t_a = s.t3 + p.tau_a + setup.expiry_margin;
  s.t_b = s.t3 + p.tau_b + setup.expiry_margin;
  s.t5 = s.t3 + p.tau_b;  // Alice's receipt on commit
  s.t6 = s.t3 + p.tau_a;  // Bob's receipt on commit
  s.t7 = s.t_b + p.tau_b;
  s.t8 = s.t_a + p.tau_a;
  return run_two_cycle(setup, alice, bob, path, workspace, s, true);
}

}  // namespace swapgame::proto
