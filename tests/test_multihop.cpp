// Tests for N-party cyclic atomic swaps (src/proto/multihop_protocol):
// Herlihy-style lock staircases, backward claim propagation, atomicity
// under per-position defection.
#include "proto/multihop_protocol.hpp"

#include <gtest/gtest.h>

#include "agents/naive.hpp"
#include "model/params.hpp"
#include "proto/swap_protocol.hpp"

namespace swapgame::proto {
namespace {

MultihopSetup make_cycle(std::size_t n) {
  MultihopSetup setup;
  for (std::size_t i = 0; i < n; ++i) {
    setup.parties.push_back(
        {"p" + std::to_string(i), 1.0 + 0.5 * static_cast<double>(i), nullptr});
  }
  return setup;
}

TEST(Multihop, ValidatesSetup) {
  const ConstantPricePath path(1.0);
  MultihopSetup one;
  one.parties.push_back({"solo", 1.0, nullptr});
  EXPECT_THROW((void)run_multihop_swap(one, path), std::invalid_argument);
  MultihopSetup bad_eps = make_cycle(3);
  bad_eps.eps = bad_eps.tau;
  EXPECT_THROW((void)run_multihop_swap(bad_eps, path), std::invalid_argument);
  MultihopSetup bad_amount = make_cycle(3);
  bad_amount.parties[1].amount = 0.0;
  EXPECT_THROW((void)run_multihop_swap(bad_amount, path),
               std::invalid_argument);
}

TEST(Multihop, TwoPartyCycleCommits) {
  const ConstantPricePath path(1.0);
  const MultihopResult r = run_multihop_swap(make_cycle(2), path);
  EXPECT_EQ(r.outcome, SwapOutcome::kSuccess);
  EXPECT_EQ(r.legs_claimed, 2);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(Multihop, HonestCyclesCommitForManySizes) {
  const ConstantPricePath path(1.0);
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u}) {
    const MultihopResult r = run_multihop_swap(make_cycle(n), path);
    EXPECT_EQ(r.outcome, SwapOutcome::kSuccess) << "n=" << n;
    EXPECT_EQ(r.legs_claimed, static_cast<int>(n)) << "n=" << n;
    EXPECT_TRUE(r.conservation_ok) << "n=" << n;
    // Everyone paid their own amount and received their predecessor's.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(r.paid[i], 1.0 + 0.5 * static_cast<double>(i));
      const std::size_t prev = (i + n - 1) % n;
      EXPECT_DOUBLE_EQ(r.received[i], 1.0 + 0.5 * static_cast<double>(prev));
    }
  }
}

TEST(Multihop, LockDeclineAbortsAtomically) {
  const ConstantPricePath path(1.0);
  for (std::size_t defector = 0; defector < 4; ++defector) {
    MultihopSetup setup = make_cycle(4);
    agents::DefectorStrategy defect(defector == 0
                                        ? agents::Stage::kT1Initiate
                                        : agents::Stage::kT2Lock);
    setup.parties[defector].strategy = &defect;
    const MultihopResult r = run_multihop_swap(setup, path);
    EXPECT_EQ(r.outcome, defector == 0 ? SwapOutcome::kNotInitiated
                                       : SwapOutcome::kBobDeclinedT2)
        << "defector=" << defector;
    EXPECT_EQ(r.locks_deployed, static_cast<int>(defector));
    EXPECT_EQ(r.legs_claimed, 0);
    EXPECT_TRUE(r.conservation_ok);
    // Nobody lost anything: paid == 0 and received == 0 for everyone.
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(r.paid[i], 0.0) << "party " << i;
      EXPECT_DOUBLE_EQ(r.received[i], 0.0) << "party " << i;
    }
  }
}

TEST(Multihop, LeaderWithholdingRefundsEveryone) {
  const ConstantPricePath path(1.0);
  MultihopSetup setup = make_cycle(4);
  agents::DefectorStrategy withhold(agents::Stage::kT3Reveal);
  setup.parties[0].strategy = &withhold;
  const MultihopResult r = run_multihop_swap(setup, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kAliceDeclinedT3);
  EXPECT_EQ(r.locks_deployed, 4);
  EXPECT_EQ(r.legs_claimed, 0);
  EXPECT_TRUE(r.conservation_ok);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.paid[i], 0.0) << "party " << i;  // refunded
  }
}

TEST(Multihop, ClaimSkipperLosesOnlyItsOwnLeg) {
  // Party 2 (of 4) sees the secret but skips its claim: it already paid
  // (its lock gets claimed by party 3... no: party 2's OUTGOING lock on
  // chain 2 is claimed by party 3 earlier in the backward wave) but never
  // collects its incoming leg on chain 1 -- the 2-party t4-miss pattern.
  const ConstantPricePath path(1.0);
  MultihopSetup setup = make_cycle(4);
  agents::DefectorStrategy skip(agents::Stage::kT4Claim);
  setup.parties[2].strategy = &skip;
  const MultihopResult r = run_multihop_swap(setup, path);
  EXPECT_EQ(r.outcome, SwapOutcome::kBobMissedT4);
  EXPECT_TRUE(r.conservation_ok);
  // The wave stops at party 2: claims on chains 3 and 2 happened (by P0 and
  // P3); chains 1 and 0 expired.
  EXPECT_EQ(r.legs_claimed, 2);
  // P2 paid (chain-2 lock claimed by P3) but received nothing.
  EXPECT_DOUBLE_EQ(r.paid[2], 2.0);
  EXPECT_DOUBLE_EQ(r.received[2], 0.0);
  // P1 did NOT pay (its chain-1 lock expired) and received nothing.
  EXPECT_DOUBLE_EQ(r.paid[1], 0.0);
  EXPECT_DOUBLE_EQ(r.received[1], 0.0);
  // P0 and P3 completed their swaps.
  EXPECT_GT(r.received[0], 0.0);
  EXPECT_GT(r.received[3], 0.0);
}

TEST(Multihop, ExpiryStaircaseDecreasesAlongDeploymentOrder) {
  // Verifiable through the audit log: expiries are printed per lock.  Here
  // we assert the structural property through outcome timing instead: the
  // completion time for n parties is n*tau + (n-1)*eps + tau.
  const ConstantPricePath path(1.0);
  MultihopSetup setup = make_cycle(5);
  const MultihopResult r = run_multihop_swap(setup, path);
  ASSERT_EQ(r.outcome, SwapOutcome::kSuccess);
  const double expected =
      5.0 * setup.tau + 4.0 * setup.eps + setup.tau;  // last claim confirm
  EXPECT_DOUBLE_EQ(r.completion_time, expected);
}

TEST(Multihop, AuditTrailNamesEveryStep) {
  const ConstantPricePath path(1.0);
  const MultihopResult r = run_multihop_swap(make_cycle(3), path);
  // 3 locks + 3 claims logged.
  int locks = 0, claims = 0;
  for (const std::string& line : r.audit) {
    if (line.find("deployed HTLC") != std::string::npos) ++locks;
    if (line.find("claimed") != std::string::npos) ++claims;
  }
  EXPECT_EQ(locks, 3);
  EXPECT_EQ(claims, 3);
}


TEST(Multihop, TwoPartyCycleIsThePapersSwap) {
  // Herlihy's 2-cycle with tau and eps on both chains is run_swap with
  // tau_a = tau_b = tau and eps_b = eps: the same completion time (run_swap's
  // t6, when Bob's claim confirms) and the same final balances.
  const ConstantPricePath path(2.0);
  MultihopSetup cycle;
  cycle.parties.push_back({"alice", 2.0, nullptr});
  cycle.parties.push_back({"bob", 1.0, nullptr});
  const MultihopResult hop = run_multihop_swap(cycle, path);

  SwapSetup setup;
  setup.params = model::SwapParams::table3_defaults();
  setup.params.tau_a = cycle.tau;
  setup.params.tau_b = cycle.tau;
  setup.params.eps_b = cycle.eps;
  setup.p_star = 2.0;
  agents::HonestStrategy alice, bob;
  const SwapResult swap = run_swap(setup, alice, bob, path);

  ASSERT_EQ(hop.outcome, SwapOutcome::kSuccess);
  ASSERT_EQ(swap.outcome, SwapOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(hop.completion_time, 10.0);
  EXPECT_DOUBLE_EQ(hop.completion_time, swap.schedule.t6);
  EXPECT_DOUBLE_EQ(hop.completion_time, swap.bob.receipt_time);
  // Party 0 pays on chain 0 (token-a) and is paid on chain 1 (token-b).
  EXPECT_DOUBLE_EQ(2.0 - hop.paid[0], swap.alice.final_token_a);
  EXPECT_DOUBLE_EQ(hop.received[0], swap.alice.final_token_b);
  EXPECT_DOUBLE_EQ(hop.received[1], swap.bob.final_token_a);
  EXPECT_DOUBLE_EQ(1.0 - hop.paid[1], swap.bob.final_token_b);
}

}  // namespace
}  // namespace swapgame::proto
