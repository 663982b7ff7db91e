// End-to-end tests of the HTLC protocol state machine (src/proto):
// every outcome path, Table I balance changes, receipt timing, collateral
// settlement and ledger conservation.
#include "proto/swap_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "agents/naive.hpp"
#include "agents/rational.hpp"
#include "obs/trace.hpp"
#include "proto/swap_machine.hpp"
#include "proto/witness_protocol.hpp"

namespace swapgame::proto {
namespace {

model::SwapParams defaults() { return model::SwapParams::table3_defaults(); }

SwapSetup basic_setup(double p_star = 2.0) {
  SwapSetup setup;
  setup.params = defaults();
  setup.p_star = p_star;
  return setup;
}

TEST(SwapProtocol, SuccessPathMatchesTableI) {
  // Table I: Alice -P* token-a / +1 token-b; Bob +P* token-a / -1 token-b.
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 0.0);
  EXPECT_DOUBLE_EQ(r.alice.final_token_b, 1.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 0.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(SwapProtocol, SuccessReceiptTimesMatchEq13) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  // Table III: t5 = 11h (Alice), t6 = 11h (Bob).
  EXPECT_DOUBLE_EQ(r.alice.receipt_time, r.schedule.t5);
  EXPECT_DOUBLE_EQ(r.bob.receipt_time, r.schedule.t6);
  EXPECT_DOUBLE_EQ(r.schedule.t5, 11.0);
  EXPECT_DOUBLE_EQ(r.schedule.t6, 11.0);
}

TEST(SwapProtocol, SuccessRealizedUtilitiesMatchStageFormulas) {
  // On a constant path the realized discounted utilities must equal the
  // model's t3-stage cont utilities evaluated along the same receipts.
  agents::HonestStrategy alice, bob;
  const double price = 2.0;
  const ConstantPricePath path(price);
  const SwapSetup setup = basic_setup();
  const SwapResult r = run_swap(setup, alice, bob, path);
  const auto& p = setup.params;
  const double expect_alice =
      (1.0 + p.alice.alpha) * price * std::exp(-p.alice.r * r.schedule.t5);
  const double expect_bob =
      (1.0 + p.bob.alpha) * setup.p_star * std::exp(-p.bob.r * r.schedule.t6);
  EXPECT_NEAR(r.alice.realized_utility, expect_alice, 1e-12);
  EXPECT_NEAR(r.bob.realized_utility, expect_bob, 1e-12);
}

TEST(SwapProtocol, NotInitiatedLeavesChainsUntouched) {
  agents::DefectorStrategy alice(agents::Stage::kT1Initiate);
  agents::HonestStrategy bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kNotInitiated);
  EXPECT_FALSE(r.success);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 1.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(SwapProtocol, BobDeclinesAtT2RefundsAliceAtT8) {
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT2Lock);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobDeclinedT2);
  // Alice's principal comes back (auto-refund at t_a, receipt t8 = 14h).
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.alice.final_token_b, 0.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 1.0);
  EXPECT_DOUBLE_EQ(r.alice.receipt_time, r.schedule.t8);
  EXPECT_DOUBLE_EQ(r.bob.receipt_time, r.schedule.t2);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(SwapProtocol, AliceDeclinesAtT3BothRefunded) {
  agents::HonestStrategy bob_strategy;
  agents::DefectorStrategy alice(agents::Stage::kT3Reveal);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob_strategy, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kAliceDeclinedT3);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 1.0);
  // Bob's token-b is stuck until t7 = 15h (the lockup-griefing cost).
  EXPECT_DOUBLE_EQ(r.bob.receipt_time, r.schedule.t7);
  EXPECT_DOUBLE_EQ(r.schedule.t7, 15.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(SwapProtocol, BobMissingT4LosesPrincipal) {
  // The paper's Section II-B warning: if Bob fails to execute after the
  // secret is revealed, "he transferred his assets without receiving
  // Alice's assets".
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT4Claim);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobMissedT4);
  EXPECT_FALSE(r.success);
  // Alice holds BOTH her refunded token-a and the claimed token-b.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.alice.final_token_b, 1.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 0.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 0.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(SwapProtocol, RationalAgentsCompleteAtStablePrice) {
  agents::RationalStrategy alice(agents::Role::kAlice, defaults(), 2.0);
  agents::RationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
}

TEST(SwapProtocol, RationalAliceWalksAwayOnPriceDrop) {
  // Price drops below the Eq. (18) cutoff (1.481 at defaults) before t3.
  agents::RationalStrategy alice(agents::Role::kAlice, defaults(), 2.0);
  agents::RationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  const SteppedPricePath path({{0.0, 2.0}, {6.5, 1.2}});
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kAliceDeclinedT3);
}

TEST(SwapProtocol, RationalBobWalksAwayOnPriceSpike) {
  // Price rises above Bob's t2 band (hi ~ 2.389 at defaults) before t2 --
  // the paper's key claim that the *non-initiator* also defects.
  agents::RationalStrategy alice(agents::Role::kAlice, defaults(), 2.0);
  agents::RationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  const SteppedPricePath path({{0.0, 2.0}, {2.5, 3.0}});
  const SwapResult r = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobDeclinedT2);
}

TEST(SwapProtocol, AuditLogRecordsEveryStep) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  std::vector<std::string> audit;
  SwapSetup setup = basic_setup();
  setup.audit_log = &audit;
  const SwapResult r = run_swap(setup, alice, bob, path);
  ASSERT_EQ(audit.size(), 4u);
  EXPECT_NE(audit[0].find("t1"), std::string::npos);
  EXPECT_NE(audit[1].find("t2"), std::string::npos);
  EXPECT_NE(audit[2].find("t3"), std::string::npos);
  EXPECT_NE(audit[3].find("t4"), std::string::npos);
  // The sink only collects lines: a run without one ends the same way.
  const SwapResult quiet = run_swap(basic_setup(), alice, bob, path);
  EXPECT_EQ(quiet.outcome, r.outcome);
  EXPECT_EQ(quiet.alice.realized_utility, r.alice.realized_utility);
  EXPECT_EQ(quiet.bob.realized_utility, r.bob.realized_utility);
}

TEST(SwapProtocol, ValidatesSetup) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  SwapSetup setup = basic_setup();
  setup.p_star = 0.0;
  EXPECT_THROW((void)run_swap(setup, alice, bob, path), std::invalid_argument);
  setup = basic_setup();
  setup.collateral = -1.0;
  EXPECT_THROW((void)run_swap(setup, alice, bob, path), std::invalid_argument);
  setup = basic_setup();
  setup.params.eps_b = setup.params.tau_b;  // Eq. (3)
  EXPECT_THROW((void)run_swap(setup, alice, bob, path), std::invalid_argument);
}

// ---- Collateralized protocol (Section IV). -------------------------------

SwapSetup collateral_setup(double q) {
  SwapSetup setup = basic_setup();
  setup.collateral = q;
  return setup;
}

TEST(CollateralProtocol, SuccessReturnsBothCollaterals) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(collateral_setup(0.5), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(r.alice_collateral_back, 0.5);
  EXPECT_DOUBLE_EQ(r.bob_collateral_back, 0.5);
  // Balances: alice had P* + Q, spent P*, got Q back -> Q on chain A.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 0.5);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 2.5);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(CollateralProtocol, BobStoppingForfeitsToAlice) {
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT2Lock);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(collateral_setup(0.5), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobDeclinedT2);
  EXPECT_DOUBLE_EQ(r.alice_collateral_back, 1.0);  // 2Q
  EXPECT_DOUBLE_EQ(r.bob_collateral_back, 0.0);
  // Alice ends with P* (refund) + 2Q on chain A.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 3.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 0.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(CollateralProtocol, AliceStoppingForfeitsToBob) {
  agents::DefectorStrategy alice(agents::Stage::kT3Reveal);
  agents::HonestStrategy bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(collateral_setup(0.5), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kAliceDeclinedT3);
  EXPECT_DOUBLE_EQ(r.alice_collateral_back, 0.0);
  EXPECT_DOUBLE_EQ(r.bob_collateral_back, 1.0);  // own Q + Alice's Q
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);  // principal refunded only
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 1.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(CollateralProtocol, EitherAgentCanDeclineEngagementAtT1) {
  agents::DefectorStrategy bob(agents::Stage::kT1Initiate);
  agents::HonestStrategy alice;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(collateral_setup(0.5), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kNotInitiated);
  // Nothing charged: both keep principal and would-be collateral.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.5);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 0.5);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(CollateralProtocol, BobMissedT4StillRecoversOwnCollateral) {
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT4Claim);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(collateral_setup(0.5), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobMissedT4);
  // Bob locked (fulfilled t2) and Alice revealed (fulfilled t3): the Oracle
  // returns both collaterals even though Bob then lost his principal.
  EXPECT_DOUBLE_EQ(r.alice_collateral_back, 0.5);
  EXPECT_DOUBLE_EQ(r.bob_collateral_back, 0.5);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(CollateralProtocol, RealizedUtilityDoesNotPremiumScaleCollateral) {
  // Eq. (32): the collateral term enters without the (1 + alpha S) factor.
  agents::HonestStrategy alice, bob;
  const double q = 0.5;
  const ConstantPricePath path(2.0);
  const SwapSetup setup = collateral_setup(q);
  const SwapResult r = run_swap(setup, alice, bob, path);
  const auto& p = setup.params;
  const double swap_part =
      (1.0 + p.alice.alpha) * 2.0 * std::exp(-p.alice.r * r.schedule.t5);
  const double coll_part =
      q * std::exp(-p.alice.r * (r.schedule.t4 + p.tau_a));
  EXPECT_NEAR(r.alice.realized_utility, swap_part + coll_part, 1e-12);
}

// --- One reused workspace (DirectRun) gives a fresh run's result. ----------

/// Throws at t3: leaves a run with pending events in its workspace.
class ThrowAtReveal final : public agents::Strategy {
 public:
  [[nodiscard]] model::Action decide(agents::Stage stage,
                                     const agents::DecisionContext&) override {
    if (stage == agents::Stage::kT3Reveal) {
      throw std::runtime_error("strategy failed at t3");
    }
    return model::Action::kCont;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "throw-at-reveal";
  }
};

/// Everything one run produced: its result, trace bytes and audit lines.
struct RunRecord {
  SwapResult result;
  std::string trace;
  std::vector<std::string> audit;
};

/// One run of the mixed sequence: a setup with its strategies and path,
/// and whether it is the witness protocol.  `traced` adds a trace sink and
/// an audit log.
struct WorkspaceCase {
  std::string name;
  SwapSetup setup;
  std::function<std::unique_ptr<agents::Strategy>()> alice;
  std::function<std::unique_ptr<agents::Strategy>()> bob;
  double price = 2.0;
  bool witness = false;
  bool traced = false;
};

/// Runs `c` in `workspace`, or in a fresh one when it is null.
RunRecord run_case(const WorkspaceCase& c, DirectRun* workspace) {
  RunRecord record;
  obs::TraceRecorder trace;
  SwapSetup setup = c.setup;
  if (c.traced) {
    setup.trace = &trace;
    setup.audit_log = &record.audit;
  }
  const std::unique_ptr<agents::Strategy> alice = c.alice();
  const std::unique_ptr<agents::Strategy> bob = c.bob();
  const ConstantPricePath path(c.price);
  if (workspace == nullptr) {
    record.result = c.witness ? run_witness_swap(setup, *alice, *bob, path)
                              : run_swap(setup, *alice, *bob, path);
  } else {
    record.result =
        c.witness ? run_witness_swap(setup, *alice, *bob, path, *workspace)
                  : run_swap(setup, *alice, *bob, path, *workspace);
  }
  record.trace = trace.to_jsonl();
  return record;
}

void expect_same_agent(const AgentResult& a, const AgentResult& b) {
  EXPECT_EQ(a.final_token_a, b.final_token_a);
  EXPECT_EQ(a.final_token_b, b.final_token_b);
  EXPECT_EQ(a.receipt_time, b.receipt_time);
  EXPECT_EQ(a.realized_value, b.realized_value);
  EXPECT_EQ(a.realized_utility, b.realized_utility);
}

void expect_same_run(const RunRecord& fresh, const RunRecord& reused) {
  const SwapResult& a = fresh.result;
  const SwapResult& b = reused.result;
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.success, b.success);
  expect_same_agent(a.alice, b.alice);
  expect_same_agent(a.bob, b.bob);
  for (const auto field :
       {&model::Schedule::t0, &model::Schedule::t1, &model::Schedule::t2,
        &model::Schedule::t3, &model::Schedule::t4, &model::Schedule::t5,
        &model::Schedule::t6, &model::Schedule::t7, &model::Schedule::t8,
        &model::Schedule::t_a, &model::Schedule::t_b}) {
    EXPECT_EQ(a.schedule.*field, b.schedule.*field);
  }
  EXPECT_EQ(a.conservation_ok, b.conservation_ok);
  EXPECT_EQ(a.collateral, b.collateral);
  EXPECT_EQ(a.alice_collateral_back, b.alice_collateral_back);
  EXPECT_EQ(a.bob_collateral_back, b.bob_collateral_back);
  EXPECT_EQ(a.premium, b.premium);
  EXPECT_EQ(a.alice_premium_back, b.alice_premium_back);
  EXPECT_EQ(a.bob_premium_gain, b.bob_premium_gain);
  EXPECT_EQ(a.invariants_ok, b.invariants_ok);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.dropped_txs, b.dropped_txs);
  EXPECT_EQ(a.rebroadcasts, b.rebroadcasts);
  EXPECT_EQ(fresh.trace, reused.trace);
  EXPECT_EQ(fresh.audit, reused.audit);
}

std::vector<WorkspaceCase> workspace_cases() {
  const auto honest = [] { return std::make_unique<agents::HonestStrategy>(); };
  const auto defect_at = [](agents::Stage stage) {
    return [stage] { return std::make_unique<agents::DefectorStrategy>(stage); };
  };
  std::vector<WorkspaceCase> cases;
  cases.push_back({"success", basic_setup(), honest, honest});
  cases.push_back({"not-initiated", basic_setup(),
                   defect_at(agents::Stage::kT1Initiate), honest});
  cases.push_back({"bob-declined-t2", basic_setup(), honest,
                   defect_at(agents::Stage::kT2Lock)});
  cases.push_back({"alice-declined-t3", basic_setup(),
                   defect_at(agents::Stage::kT3Reveal), honest});
  cases.push_back({"bob-missed-t4", basic_setup(), honest,
                   defect_at(agents::Stage::kT4Claim)});

  WorkspaceCase faulted{"faulted", basic_setup(), honest, honest};
  faulted.setup.faults.chain_a.drop_prob = 0.5;
  faulted.setup.faults.chain_b.drop_prob = 0.5;
  faulted.setup.faults.chain_b.extra_delay_prob = 0.5;
  faulted.setup.faults.chain_b.extra_delay_max = 1.0;
  faulted.setup.faults.bob_offline = {{1.0, 4.0}};
  faulted.setup.faults.seed = 11;
  cases.push_back(faulted);

  WorkspaceCase jitter{"jitter", basic_setup(), honest, honest};
  jitter.setup.confirmation_jitter_a = 2.0;
  jitter.setup.confirmation_jitter_b = 2.0;
  jitter.setup.latency_seed = 5;
  cases.push_back(jitter);

  WorkspaceCase deposits{"collateral-premium", basic_setup(), honest,
                         defect_at(agents::Stage::kT2Lock)};
  deposits.setup.collateral = 0.5;
  deposits.setup.premium = 0.1;
  deposits.setup.alice_extra_token_a = 1.0;
  deposits.setup.bob_extra_token_a = 1.0;
  deposits.traced = true;
  cases.push_back(deposits);

  WorkspaceCase traced{"traced", basic_setup(), honest, honest};
  traced.setup.faults.chain_b.drop_prob = 0.5;
  traced.setup.faults.seed = 3;
  traced.traced = true;
  cases.push_back(traced);

  WorkspaceCase unaudited{"unaudited", basic_setup(), honest, honest};
  unaudited.setup.audit = false;
  cases.push_back(unaudited);

  cases.push_back({"witness", basic_setup(), honest, honest, 2.0, true});
  return cases;
}

TEST(SwapWorkspace, ReusedWorkspaceMatchesFreshRuns) {
  // A mixed sequence through one workspace, twice over, so every case
  // also follows every other; each run must equal the same run in a fresh
  // workspace, field for field and byte for byte.
  const std::vector<WorkspaceCase> cases = workspace_cases();
  DirectRun workspace;
  for (int pass = 0; pass < 2; ++pass) {
    for (const WorkspaceCase& c : cases) {
      SCOPED_TRACE(c.name + " (pass " + std::to_string(pass) + ")");
      expect_same_run(run_case(c, nullptr), run_case(c, &workspace));
    }
  }
  // The sequence reaches the outcomes it is meant to cover.
  EXPECT_EQ(run_case(cases[1], &workspace).result.outcome,
            SwapOutcome::kNotInitiated);
  EXPECT_EQ(run_case(cases[4], &workspace).result.outcome,
            SwapOutcome::kBobMissedT4);
  EXPECT_GT(run_case(cases[5], &workspace).result.rebroadcasts, 0);
}

TEST(SwapWorkspace, RunAfterAThrowMatchesAFreshRun) {
  const std::vector<WorkspaceCase> cases = workspace_cases();
  DirectRun workspace;
  // Invalid terms throw before the workspace is touched ...
  WorkspaceCase invalid = cases[0];
  invalid.setup.p_star = -1.0;
  EXPECT_THROW((void)run_case(invalid, &workspace), std::invalid_argument);
  for (const WorkspaceCase& c : cases) {
    SCOPED_TRACE(c.name);
    expect_same_run(run_case(c, nullptr), run_case(c, &workspace));
  }
  // ... a strategy that throws mid-run leaves events pending in it.
  WorkspaceCase midway = cases[0];
  midway.alice = [] { return std::make_unique<ThrowAtReveal>(); };
  for (const WorkspaceCase& c : cases) {
    SCOPED_TRACE(c.name + " after a mid-run throw");
    EXPECT_THROW((void)run_case(midway, &workspace), std::runtime_error);
    expect_same_run(run_case(c, nullptr), run_case(c, &workspace));
  }
}

}  // namespace
}  // namespace swapgame::proto
