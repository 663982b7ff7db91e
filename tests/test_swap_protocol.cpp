// End-to-end tests of the HTLC protocol state machine (src/proto):
// every outcome path, Table I balance changes, receipt timing, collateral
// settlement and ledger conservation.
#include "proto/swap_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "agents/naive.hpp"
#include "agents/rational.hpp"

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

}  // namespace
}  // namespace swapgame::proto
