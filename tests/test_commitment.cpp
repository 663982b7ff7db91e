// Tests for the witness-commitment game/protocol (AC^3TW comparison
// family): src/model/commitment_game + src/proto/witness_protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "agents/naive.hpp"
#include "agents/rational.hpp"
#include "model/basic_game.hpp"
#include "model/commitment_game.hpp"
#include "obs/trace.hpp"
#include "proto/witness_protocol.hpp"

namespace swapgame {
namespace {

model::SwapParams defaults() { return model::SwapParams::table3_defaults(); }

TEST(CommitmentGame, ValidatesInput) {
  EXPECT_THROW(model::CommitmentGame(defaults(), 0.0), std::invalid_argument);
  EXPECT_NO_THROW(model::CommitmentGame(defaults(), 2.0));
}

TEST(CommitmentGame, BobThresholdIsClosedForm) {
  const model::CommitmentGame game(defaults(), 2.0);
  const double expected =
      1.3 * 2.0 * std::exp(-0.01 * (4.0 + 3.0));  // (1+aB) P* e^{-rB(tb+ta)}
  EXPECT_NEAR(game.bob_t2_threshold(), expected, 1e-12);
  EXPECT_NEAR(game.bob_t2_cont(), expected, 1e-12);
}

TEST(CommitmentGame, BobLocksAtAllLowPrices) {
  // The defining difference from the HTLC game: no lower band edge.
  const model::CommitmentGame game(defaults(), 2.0);
  EXPECT_EQ(game.bob_decision_t2(1e-9), model::Action::kCont);
  EXPECT_EQ(game.bob_decision_t2(game.bob_t2_threshold()), model::Action::kCont);
  EXPECT_EQ(game.bob_decision_t2(game.bob_t2_threshold() * 1.01),
            model::Action::kStop);
  // The HTLC game declines at the same low price.
  const model::BasicGame htlc(defaults(), 2.0);
  EXPECT_EQ(htlc.bob_decision_t2(0.5), model::Action::kStop);
}

TEST(CommitmentGame, SuccessRateBeatsHtlc) {
  const model::CommitmentGame witness(defaults(), 2.0);
  const model::BasicGame htlc(defaults(), 2.0);
  EXPECT_GT(witness.success_rate(), htlc.success_rate());
  EXPECT_NEAR(witness.success_rate(), 0.8775, 2e-3);  // regression pin
}

TEST(CommitmentGame, AliceUtilityLowerThanHtlc) {
  // Alice trades her American option away: completion up, utility down.
  const model::CommitmentGame witness(defaults(), 2.0);
  const model::BasicGame htlc(defaults(), 2.0);
  EXPECT_LT(witness.alice_t1_cont(), htlc.alice_t1_cont());
  // She still initiates (cont beats stop at the default rate).
  EXPECT_EQ(witness.alice_decision_t1(), model::Action::kCont);
}

TEST(CommitmentGame, BobUtilityHigherThanHtlc) {
  // Bob benefits twice: no Alice-defection risk and faster receipt.
  const model::CommitmentGame witness(defaults(), 2.0);
  const model::BasicGame htlc(defaults(), 2.0);
  EXPECT_GT(witness.bob_t1_cont(), htlc.bob_t1_cont());
}

TEST(CommitmentGame, SuccessRateEqualsThresholdProbability) {
  const model::CommitmentGame game(defaults(), 2.0);
  const math::GbmLaw law(defaults().gbm, defaults().p_t0, defaults().tau_a);
  EXPECT_NEAR(game.success_rate(), law.cdf(game.bob_t2_threshold()), 1e-12);
}

TEST(CommitmentGame, FeasibleBandExists) {
  const model::FeasibleBand band = model::commitment_feasible_band(defaults());
  ASSERT_TRUE(band.viable);
  EXPECT_LT(band.lo, 2.0);
  EXPECT_GT(band.hi, 2.0);
  // Regression pins.
  EXPECT_NEAR(band.lo, 1.4898, 2e-3);
  EXPECT_NEAR(band.hi, 2.3538, 2e-3);
}

// ---- Protocol execution. ---------------------------------------------------

TEST(WitnessProtocol, CommitPathMatchesTableI) {
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::HonestStrategy alice, bob;
  const proto::ConstantPricePath path(2.0);
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, path);
  EXPECT_EQ(r.outcome, proto::SwapOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 0.0);
  EXPECT_DOUBLE_EQ(r.alice.final_token_b, 1.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 0.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(WitnessProtocol, ReceiptsAreFasterThanHtlc) {
  // Commit receipts: Alice at t3 + tau_b = 11h (same as HTLC's t5), Bob at
  // t3 + tau_a = 10h (vs the HTLC's 11h -- no eps_b wait).
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::HonestStrategy alice, bob;
  const proto::ConstantPricePath path(2.0);
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, path);
  EXPECT_DOUBLE_EQ(r.alice.receipt_time, 11.0);
  EXPECT_DOUBLE_EQ(r.bob.receipt_time, 10.0);
}

TEST(WitnessProtocol, AbortRefundsBoth) {
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::HonestStrategy alice;
  agents::DefectorStrategy bob(agents::Stage::kT2Lock);
  const proto::ConstantPricePath path(2.0);
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, path);
  EXPECT_EQ(r.outcome, proto::SwapOutcome::kBobDeclinedT2);
  EXPECT_DOUBLE_EQ(r.alice.final_token_a, 2.0);
  EXPECT_DOUBLE_EQ(r.bob.final_token_b, 1.0);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(WitnessProtocol, NoPostLockDefectionPossible) {
  // Even a strategy that would defect at t3/t4 cannot: those stages do not
  // exist -- the witness completes the swap.
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::DefectorStrategy alice(agents::Stage::kT3Reveal);
  agents::DefectorStrategy bob(agents::Stage::kT4Claim);
  const proto::ConstantPricePath path(2.0);
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, path);
  EXPECT_EQ(r.outcome, proto::SwapOutcome::kSuccess);
  EXPECT_TRUE(r.conservation_ok);
}

TEST(WitnessProtocol, RationalAgentsCompleteThroughCrash) {
  // Price crash before t2: rational HTLC-Bob walks away (low band edge);
  // rational commitment-Bob locks (no Alice risk) and the swap completes.
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::CommitmentRationalStrategy alice(agents::Role::kAlice, defaults(),
                                           2.0);
  agents::CommitmentRationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  const proto::SteppedPricePath crash({{0.0, 2.0}, {2.5, 0.5}});
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, crash);
  EXPECT_EQ(r.outcome, proto::SwapOutcome::kSuccess);
}

TEST(WitnessProtocol, RationalBobStillWalksOnSpike) {
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::CommitmentRationalStrategy alice(agents::Role::kAlice, defaults(),
                                           2.0);
  agents::CommitmentRationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  const proto::SteppedPricePath spike({{0.0, 2.0}, {2.5, 3.2}});
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, spike);
  EXPECT_EQ(r.outcome, proto::SwapOutcome::kBobDeclinedT2);
}

TEST(WitnessProtocol, ProtocolOutcomesMatchModelAcrossPriceGrid) {
  const model::CommitmentGame game(defaults(), 2.0);
  agents::CommitmentRationalStrategy alice(agents::Role::kAlice, defaults(),
                                           2.0);
  agents::CommitmentRationalStrategy bob(agents::Role::kBob, defaults(), 2.0);
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  for (double p_t2 : {0.3, 1.0, 2.0, 2.4, 2.45, 3.0}) {
    const proto::SteppedPricePath path({{0.0, 2.0}, {3.0, p_t2}});
    const proto::SwapResult r =
        proto::run_witness_swap(setup, alice, bob, path);
    const proto::SwapOutcome expected =
        game.bob_decision_t2(p_t2) == model::Action::kCont
            ? proto::SwapOutcome::kSuccess
            : proto::SwapOutcome::kBobDeclinedT2;
    EXPECT_EQ(r.outcome, expected) << "p_t2=" << p_t2;
  }
}


TEST(WitnessProtocol, TracedRunRecordsDecisionsAndOutcome) {
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  obs::TraceRecorder trace;
  setup.trace = &trace;
  agents::HonestStrategy alice, bob;
  const proto::ConstantPricePath path(2.0);
  const proto::SwapResult r = proto::run_witness_swap(setup, alice, bob, path);
  ASSERT_EQ(r.outcome, proto::SwapOutcome::kSuccess);
  std::vector<std::string> deciders;
  std::string outcome;
  for (const obs::TraceEvent& e : trace.events()) {
    for (const obs::TraceField& f : e.fields) {
      const auto* text = std::get_if<std::string>(&f.value.value);
      if (text == nullptr) continue;
      if (e.kind == obs::TraceKind::kDecision && f.key == "party") {
        deciders.push_back(*text);
      }
      if (e.kind == obs::TraceKind::kOutcome && f.key == "outcome") {
        outcome = *text;
      }
    }
  }
  // Alice decides at t1 and Bob at t2; the witness, not a party, commits.
  EXPECT_EQ(deciders, (std::vector<std::string>{"alice", "bob"}));
  EXPECT_EQ(outcome, "success");
}

TEST(WitnessProtocol, FaultedRunsAreAuditedAndRebroadcast) {
  // Dropped broadcasts are re-sent, and the InvariantAuditor attached to
  // both chains reports on every run.
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  setup.expiry_margin = 6.0;
  setup.faults.chain_a.drop_prob = 0.3;
  setup.faults.chain_b.drop_prob = 0.3;
  agents::HonestStrategy alice, bob;
  const proto::ConstantPricePath path(2.0);
  int dropped = 0;
  int rebroadcasts = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    setup.faults.seed = seed;
    const proto::SwapResult r =
        proto::run_witness_swap(setup, alice, bob, path);
    EXPECT_TRUE(r.invariants_ok) << "seed=" << seed;
    EXPECT_TRUE(r.invariant_violations.empty()) << "seed=" << seed;
    EXPECT_TRUE(r.conservation_ok) << "seed=" << seed;
    dropped += r.dropped_txs;
    rebroadcasts += r.rebroadcasts;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(rebroadcasts, 0);
}

TEST(WitnessProtocol, RejectsCollateralAndPremium) {
  proto::SwapSetup setup;
  setup.params = defaults();
  setup.p_star = 2.0;
  agents::HonestStrategy alice, bob;
  const proto::ConstantPricePath path(2.0);
  setup.collateral = 0.5;
  EXPECT_THROW((void)proto::run_witness_swap(setup, alice, bob, path),
               std::invalid_argument);
  setup.collateral = 0.0;
  setup.premium = 0.1;
  EXPECT_THROW((void)proto::run_witness_swap(setup, alice, bob, path),
               std::invalid_argument);
}

}  // namespace
}  // namespace swapgame
