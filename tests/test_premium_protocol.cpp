// End-to-end tests of the premium escrow in the protocol (src/proto):
// settlement on every outcome path, watcher cancellation, composition with
// collateral, and agreement with the PremiumGame thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "agents/naive.hpp"
#include "agents/rational.hpp"
#include "proto/swap_protocol.hpp"

namespace swapgame::proto {
namespace {

model::SwapParams defaults() { return model::SwapParams::table3_defaults(); }

SwapSetup premium_setup(double pr) {
  SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  setup.premium = pr;
  return setup;
}

TEST(PremiumProtocol, SuccessReturnsPremiumToAlice) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(premium_setup(0.3), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(r.alice_premium_back, 0.3);
  EXPECT_DOUBLE_EQ(r.bob_premium_gain, 0.0);
  // Alice: started with P* + pr, spent P*, got pr back.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 0.3);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 2.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(PremiumProtocol, AliceWaivingForfeitsPremiumToBob) {
  agents::DefectorStrategy alice(agents::Stage::kT3Reveal);
  agents::HonestStrategy bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(premium_setup(0.3), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kAliceDeclinedT3);
  EXPECT_DOUBLE_EQ(r.alice_premium_back, 0.0);
  EXPECT_DOUBLE_EQ(r.bob_premium_gain, 0.3);
  // Alice: P* refunded but premium gone; Bob keeps token-b + premium.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 0.3);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 1.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(PremiumProtocol, WatcherCancelsWhenBobNeverLocks) {
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT2Lock);
  const ConstantPricePath path(2.0);
  std::vector<std::string> audit;
  SwapSetup setup = premium_setup(0.3);
  setup.audit_log = &audit;
  const SwapResult r = run_swap(setup, alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobDeclinedT2);
  // Alice is NOT penalized: the watcher cancels the escrow back to her.
  EXPECT_DOUBLE_EQ(r.alice_premium_back, 0.3);
  EXPECT_DOUBLE_EQ(r.bob_premium_gain, 0.0);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.3);
  EXPECT_TRUE(r.conservation_ok);
  bool cancel_logged = false;
  for (const std::string& line : audit) {
    if (line.find("watcher cancelled") != std::string::npos) {
      cancel_logged = true;
    }
  }
  EXPECT_TRUE(cancel_logged);
}

TEST(PremiumProtocol, NotInitiatedKeepsPremiumUnescrowed) {
  agents::DefectorStrategy alice(agents::Stage::kT1Initiate);
  agents::HonestStrategy bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(premium_setup(0.3), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kNotInitiated);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.3);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(PremiumProtocol, BobMissedT4AliceStillRecoversPremium) {
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT4Claim);
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(premium_setup(0.3), alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobMissedT4);
  EXPECT_DOUBLE_EQ(r.alice_premium_back, 0.3);
  // Alice revealed, so she gets token-b AND the refund AND her premium.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.3);
  EXPECT_DOUBLE_EQ(r.alice.final_token_b, 1.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(PremiumProtocol, RationalPremiumAliceRevealsThroughModerateDrop) {
  // Price drops to 1.3: below the basic cutoff (1.481) but above the
  // premium-game cutoff with pr = 0.3 (~1.25) -- the premium keeps a
  // rational Alice honest where the basic game would defect.
  const double pr = 0.3;
  agents::PremiumRationalStrategy alice(agents::Role::kAlice, defaults(), 2.0,
                                        pr);
  agents::PremiumRationalStrategy bob(agents::Role::kBob, defaults(), 2.0, pr);
  const SteppedPricePath drop({{0.0, 2.0}, {6.5, 1.3}});
  const SwapResult with_premium = run_swap(premium_setup(pr), alice, bob, drop);
  EXPECT_EQ(with_premium.outcome, SwapOutcome::kSuccess);

  agents::RationalStrategy basic_alice(agents::Role::kAlice, defaults(), 2.0);
  agents::RationalStrategy basic_bob(agents::Role::kBob, defaults(), 2.0);
  const SwapResult without =
      run_swap(premium_setup(0.0), basic_alice, basic_bob, drop);
  EXPECT_EQ(without.outcome, SwapOutcome::kAliceDeclinedT3);
}

TEST(PremiumProtocol, RealizedUtilityIncludesPremiumUnscaled) {
  agents::HonestStrategy alice, bob;
  const double pr = 0.3;
  const ConstantPricePath path(2.0);
  const SwapSetup setup = premium_setup(pr);
  const SwapResult r = run_swap(setup, alice, bob, path);
  const auto& p = setup.params;
  const double swap_part =
      (1.0 + p.alice.alpha) * 2.0 * std::exp(-p.alice.r * r.schedule.t5);
  const double premium_part =
      pr * std::exp(-p.alice.r * (r.schedule.t3 + p.tau_a));
  EXPECT_NEAR(r.alice.realized_utility, swap_part + premium_part, 1e-12);
}

TEST(PremiumProtocol, ComposesWithCollateral) {
  SwapSetup setup = premium_setup(0.2);
  setup.collateral = 0.4;
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  const SwapResult r = run_swap(setup, alice, bob, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(r.alice_premium_back, 0.2);
  EXPECT_DOUBLE_EQ(r.alice_collateral_back, 0.4);
  EXPECT_DOUBLE_EQ(r.bob_collateral_back, 0.4);
  // Alice: P* + Q + pr initial; spent P*, recovered Q + pr.
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 0.6);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(PremiumProtocol, ValidatesSetup) {
  agents::HonestStrategy alice, bob;
  const ConstantPricePath path(2.0);
  SwapSetup setup = premium_setup(-0.1);
  EXPECT_THROW((void)run_swap(setup, alice, bob, path), std::invalid_argument);
}

}  // namespace
}  // namespace swapgame::proto
