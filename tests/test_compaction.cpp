// Tests for the bounded-memory retirement layer: Ledger compaction
// (conservation across the fold, audited), visible_secrets() across
// sweeps, Neumaier-compensated accumulation, and
// population-run equivalence with compaction on vs off and 1 vs K workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "chain/auditor.hpp"
#include "chain/block.hpp"
#include "chain/event_queue.hpp"
#include "chain/faults.hpp"
#include "chain/ledger.hpp"
#include "crypto/secret.hpp"
#include "market/population/population_sim.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "obs/trace.hpp"

namespace swapgame {
namespace {

// ---------------------------------------------------------------------------
// Ledger compaction
// ---------------------------------------------------------------------------

struct LedgerFixture {
  chain::EventQueue queue;
  chain::Ledger ledger;
  math::Xoshiro256 rng{0xC0FFEE};

  LedgerFixture()
      : ledger({chain::ChainId::kChainA, /*tau=*/2.0, /*eps=*/0.5}, queue) {
    ledger.create_account(chain::Address{"alice"},
                          chain::Amount::from_tokens(50.0));
    ledger.create_account(chain::Address{"bob"},
                          chain::Amount::from_tokens(50.0));
  }

  /// Deploys an HTLC from alice to bob and claims it; returns the ids.
  std::pair<chain::TxId, chain::TxId> deploy_and_claim(double expiry) {
    const crypto::Secret secret = crypto::Secret::generate(rng);
    const chain::TxId deploy =
        ledger.submit(chain::DeployHtlcPayload{{"alice"},
                                               {"bob"},
                                               chain::Amount::from_tokens(5.0),
                                               secret.commitment(),
                                               expiry,
                                               chain::HtlcKind::kStandard});
    const chain::HtlcId id = ledger.pending_contract_of(deploy);
    queue.run_until(queue.now() + 2.0);  // deploy confirms
    const chain::TxId claim =
        ledger.submit(chain::ClaimHtlcPayload{id, secret, {"bob"}});
    queue.run_until(queue.now() + 2.0);  // claim confirms
    return {deploy, claim};
  }
};

TEST(LedgerCompaction, RetiresSettledRecordsAndConservesSupply) {
  LedgerFixture fx;
  // The sweep sums supply only for an attached auditor, so attach one to
  // make the report's before/after fields two real sums.
  chain::InvariantAuditor auditor;
  auditor.attach(fx.ledger);
  const chain::Amount supply = fx.ledger.total_supply();
  const auto [deploy, claim] = fx.deploy_and_claim(/*expiry=*/20.0);
  fx.queue.run_until(10.0);

  EXPECT_EQ(fx.ledger.transaction_count(), 2u);
  const chain::CompactionReport report = fx.ledger.compact(9.0);
  EXPECT_EQ(report.transactions_retired, 2u);
  EXPECT_EQ(report.htlcs_retired, 1u);
  EXPECT_EQ(report.log_truncated, 2u);
  EXPECT_EQ(report.supply_before, supply);
  EXPECT_EQ(report.supply_before, report.supply_after);
  EXPECT_EQ(fx.ledger.total_supply(), supply);
  EXPECT_TRUE(auditor.ok());

  // Records are gone, counters remember them.
  EXPECT_EQ(fx.ledger.find_transaction(deploy), nullptr);
  EXPECT_EQ(fx.ledger.find_transaction(claim), nullptr);
  EXPECT_THROW(static_cast<void>(fx.ledger.transaction(claim)),
               std::out_of_range);
  EXPECT_EQ(fx.ledger.transaction_count(), 2u);
  EXPECT_EQ(fx.ledger.confirmation_log_offset(), 2u);
  EXPECT_TRUE(fx.ledger.confirmation_log().empty());
}

TEST(LedgerCompaction, LockedContractsAndRecentRecordsSurvive) {
  LedgerFixture fx;
  // An open lock deep in the past...
  const crypto::Secret secret = crypto::Secret::generate(fx.rng);
  const chain::TxId deploy =
      fx.ledger.submit(chain::DeployHtlcPayload{{"alice"},
                                                {"bob"},
                                                chain::Amount::from_tokens(3.0),
                                                secret.commitment(),
                                                /*expiry=*/100.0,
                                                chain::HtlcKind::kStandard});
  const chain::HtlcId id = fx.ledger.pending_contract_of(deploy);
  fx.queue.run_until(50.0);

  const chain::Amount supply = fx.ledger.total_supply();
  const chain::CompactionReport report = fx.ledger.compact(49.0);
  // The deploy tx retires (applied long ago) but the LOCKED contract must
  // survive -- its amount is live supply and its refund path must work.
  EXPECT_EQ(report.transactions_retired, 1u);
  EXPECT_EQ(report.htlcs_retired, 0u);
  ASSERT_TRUE(fx.ledger.has_htlc(id));
  EXPECT_EQ(fx.ledger.total_supply(), supply);

  // The auto-refund still fires at expiry and pays alice back.
  fx.queue.run_until(110.0);
  EXPECT_EQ(fx.ledger.htlc(id).state, chain::HtlcState::kRefunded);
  EXPECT_EQ(fx.ledger.balance({"alice"}), chain::Amount::from_tokens(50.0));
  EXPECT_EQ(fx.ledger.total_supply(), supply);
}

TEST(LedgerCompaction, FindHtlcSeesOnlyDeployedUnretiredContracts) {
  LedgerFixture fx;
  const crypto::Secret secret = crypto::Secret::generate(fx.rng);
  const auto deploy_of = [&](double amount) {
    return fx.ledger.submit(
        chain::DeployHtlcPayload{{"alice"},
                                 {"bob"},
                                 chain::Amount::from_tokens(amount),
                                 secret.commitment(),
                                 /*expiry=*/30.0,
                                 chain::HtlcKind::kStandard});
  };
  const chain::HtlcId settled = fx.ledger.pending_contract_of(deploy_of(2.0));
  // Not yet deployed: the id is assigned, the contract does not exist.
  EXPECT_EQ(fx.ledger.find_htlc(settled), nullptr);
  EXPECT_FALSE(fx.ledger.has_htlc(settled));
  fx.queue.run_until(2.0);
  const chain::HtlcContract* found = fx.ledger.find_htlc(settled);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &fx.ledger.htlc(settled));
  EXPECT_EQ(found->id.value, settled.value);
  fx.ledger.submit(chain::ClaimHtlcPayload{settled, secret, {"bob"}});
  // A deploy that fails at confirmation (alice cannot fund 100) never
  // creates its contract; one still pending has none yet.
  const chain::HtlcId failed = fx.ledger.pending_contract_of(deploy_of(100.0));
  fx.queue.run_until(5.0);
  const chain::HtlcId pending = fx.ledger.pending_contract_of(deploy_of(1.0));
  EXPECT_EQ(fx.ledger.htlc(settled).state, chain::HtlcState::kClaimed);
  EXPECT_EQ(fx.ledger.find_htlc(failed), nullptr);
  EXPECT_EQ(fx.ledger.find_htlc(pending), nullptr);

  // Retired: the settled contract leaves; the pending one's id, before
  // and after the sweep, still resolves once its deploy confirms.
  fx.ledger.compact(4.5);
  EXPECT_EQ(fx.ledger.find_htlc(settled), nullptr);
  EXPECT_THROW(static_cast<void>(fx.ledger.htlc(settled)), std::out_of_range);
  EXPECT_EQ(fx.ledger.find_htlc(failed), nullptr);
  fx.queue.run_until(8.0);
  ASSERT_NE(fx.ledger.find_htlc(pending), nullptr);
  EXPECT_EQ(fx.ledger.find_htlc(pending)->amount,
            chain::Amount::from_tokens(1.0));
  // Unknown ids: never handed out, or 0.
  EXPECT_EQ(fx.ledger.find_htlc(chain::HtlcId{pending.value + 1}), nullptr);
  EXPECT_EQ(fx.ledger.find_htlc(chain::HtlcId{999}), nullptr);
  EXPECT_EQ(fx.ledger.find_htlc(chain::HtlcId{0}), nullptr);
  // Iteration visits the live contracts only, ascending by id.
  std::vector<std::uint64_t> ids;
  for (const chain::HtlcContract& c : fx.ledger.htlcs()) {
    ids.push_back(c.id.value);
  }
  EXPECT_EQ(ids, std::vector<std::uint64_t>{pending.value});
}

TEST(LedgerCompaction, WatermarkMustBeStrictlyInThePast) {
  LedgerFixture fx;
  fx.queue.run_until(5.0);
  EXPECT_THROW(fx.ledger.compact(5.0), std::invalid_argument);
  EXPECT_THROW(fx.ledger.compact(6.0), std::invalid_argument);
  EXPECT_THROW(fx.ledger.compact(std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(fx.ledger.compact(4.9));
}

TEST(LedgerCompaction, PendingTransactionSurvivesASkippedClock) {
  LedgerFixture fx;
  const chain::TxId transfer = fx.ledger.submit(chain::TransferPayload{
      {"alice"}, {"bob"}, chain::Amount::from_tokens(1.0)});
  // Jump the clock past the confirmation without firing it: the record's
  // retire time is behind the watermark, but it is still pending.
  fx.queue.advance_to(10.0);
  EXPECT_EQ(fx.ledger.compact(9.0).transactions_retired, 0u);
  ASSERT_NE(fx.ledger.find_transaction(transfer), nullptr);

  fx.queue.run();  // the apply event still finds its record
  EXPECT_EQ(fx.ledger.transaction(transfer).status,
            chain::TxStatus::kConfirmed);
  fx.queue.advance_to(11.0);
  EXPECT_EQ(fx.ledger.compact(10.5).transactions_retired, 1u);
  EXPECT_EQ(fx.ledger.find_transaction(transfer), nullptr);
}

TEST(LedgerCompaction, RetireAccountFoldsBalanceIntoSupply) {
  LedgerFixture fx;
  fx.queue.run_until(1.0);
  const chain::Amount supply = fx.ledger.total_supply();
  fx.ledger.retire_account({"alice"});
  EXPECT_FALSE(fx.ledger.has_account({"alice"}));
  EXPECT_EQ(fx.ledger.retired_balance(), chain::Amount::from_tokens(50.0));
  EXPECT_EQ(fx.ledger.total_supply(), supply);
  EXPECT_THROW(fx.ledger.retire_account({"alice"}), std::out_of_range);
}

TEST(LedgerCompaction, EmitsTraceEventAndNotifiesAuditor) {
  LedgerFixture fx;
  chain::InvariantAuditor auditor;
  auditor.attach(fx.ledger);
  obs::TraceRecorder trace;
  fx.ledger.set_trace(&trace);

  fx.deploy_and_claim(/*expiry=*/20.0);
  fx.queue.run_until(10.0);
  const std::uint64_t checks_before = auditor.checks_run();
  fx.ledger.compact(9.0);

  EXPECT_TRUE(auditor.ok());
  EXPECT_EQ(auditor.checks_run(), checks_before + 1);
  bool saw_compaction = false;
  for (const obs::TraceEvent& ev : trace.events()) {
    if (ev.kind == obs::TraceKind::kCompaction) saw_compaction = true;
  }
  EXPECT_TRUE(saw_compaction);
}

TEST(LedgerCompaction, AuditorCatchesSupplyDriftAcrossTheFold) {
  LedgerFixture fx;
  chain::InvariantAuditor auditor;
  auditor.attach(fx.ledger);
  fx.deploy_and_claim(/*expiry=*/20.0);
  fx.queue.run_until(10.0);
  // Minting mid-run breaks the attach-time baseline; the next sweep's
  // conservation check must flag it.
  fx.ledger.create_account({"minter"}, chain::Amount::from_tokens(1.0));
  fx.ledger.compact(9.0);
  ASSERT_FALSE(auditor.ok());
  EXPECT_NE(auditor.violations()[0].what.find("conservation"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// visible_secrets() against a reference rescan
// ---------------------------------------------------------------------------

/// The pre-index algorithm: rescan every transaction for mempool-visible
/// claims, ascending by tx id.  The incremental index must match exactly.
std::vector<chain::ObservedSecret> rescan_secrets(
    const chain::Ledger& ledger, const std::vector<chain::TxId>& txs,
    double now) {
  std::vector<chain::ObservedSecret> result;
  for (const chain::TxId id : txs) {
    const chain::Transaction* tx = ledger.find_transaction(id);
    if (tx == nullptr || tx->visible_at > now) continue;
    if (const auto* claim =
            std::get_if<chain::ClaimHtlcPayload>(&tx->payload)) {
      result.push_back({claim->secret, claim->contract, tx->visible_at});
    }
  }
  return result;
}

TEST(SecretIndex, MatchesTheFullRescanAtEveryClockStep) {
  LedgerFixture fx;
  std::vector<chain::TxId> all_txs;
  std::vector<chain::HtlcId> contracts;
  std::vector<crypto::Secret> secrets;
  // Three overlapping deploy+claim pairs, so visibility times interleave.
  for (int i = 0; i < 3; ++i) {
    secrets.push_back(crypto::Secret::generate(fx.rng));
    all_txs.push_back(fx.ledger.submit(
        chain::DeployHtlcPayload{{"alice"},
                                 {"bob"},
                                 chain::Amount::from_tokens(2.0),
                                 secrets.back().commitment(),
                                 /*expiry=*/40.0,
                                 chain::HtlcKind::kStandard}));
    contracts.push_back(fx.ledger.pending_contract_of(all_txs.back()));
    fx.queue.run_until(fx.queue.now() + 2.5);
  }
  for (int i = 0; i < 3; ++i) {
    all_txs.push_back(fx.ledger.submit(
        chain::ClaimHtlcPayload{contracts[i], secrets[i], {"bob"}}));
    fx.queue.run_until(fx.queue.now() + 0.3);  // claims not yet visible
    // Index and rescan must agree BETWEEN submissions too (pending heap
    // half-matured).
    const auto expected =
        rescan_secrets(fx.ledger, all_txs, fx.queue.now());
    const auto got = fx.ledger.visible_secrets();
    ASSERT_EQ(got.size(), expected.size()) << "i=" << i;
  }
  fx.queue.run_until(fx.queue.now() + 10.0);

  const auto expected = rescan_secrets(fx.ledger, all_txs, fx.queue.now());
  const auto got = fx.ledger.visible_secrets();
  ASSERT_EQ(got.size(), 3u);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].secret.bytes(), expected[i].secret.bytes());
    EXPECT_EQ(got[i].contract.value, expected[i].contract.value);
    EXPECT_EQ(got[i].visible_since, expected[i].visible_since);
  }
}

TEST(SecretIndex, CompactionDropsRetiredClaims) {
  LedgerFixture fx;
  fx.deploy_and_claim(/*expiry=*/20.0);
  fx.queue.run_until(8.0);
  ASSERT_EQ(fx.ledger.visible_secrets().size(), 1u);
  fx.ledger.compact(7.5);
  // The claim's record is gone, so the index (like the old rescan of the
  // remaining transactions) no longer reports its secret.
  EXPECT_TRUE(fx.ledger.visible_secrets().empty());
}

/// A compaction sweep must retire exactly the records the full-scan
/// predicate selects, also when jitter, extra delays and a halt make
/// confirmation times non-monotone in transaction id.
TEST(LedgerCompaction, RetiredSetMatchesFullScanUnderJitterAndFaults) {
  chain::EventQueue queue;
  math::Xoshiro256 jitter_rng{0x71773};
  chain::Ledger ledger({chain::ChainId::kChainB, /*tau=*/2.0, /*eps=*/0.5,
                        /*jitter=*/1.5},
                       queue, &jitter_rng);
  chain::FaultModel model;
  model.drop_prob = 0.15;
  model.extra_delay_prob = 0.3;
  model.extra_delay_max = 4.0;
  model.halts = {{20.0, 24.0}};
  chain::FaultInjector faults(model, /*seed=*/0xFA17);
  ledger.set_fault_injector(&faults);
  const chain::Address alice{"alice"}, bob{"bob"};
  ledger.create_account(alice, chain::Amount::from_tokens(1e6));
  ledger.create_account(bob, chain::Amount::from_tokens(1e6));

  math::Xoshiro256 rng{0xD21E};
  struct Lock {
    chain::HtlcId id;
    crypto::Secret secret;
    chain::HtlcKind kind;
  };
  std::vector<Lock> locks;
  const auto submit_step = [&] {
    const double roll = math::uniform01(rng);
    if (roll < 0.35 || locks.empty()) {
      const crypto::Secret secret = crypto::Secret::generate(rng);
      const chain::HtlcKind kind = math::uniform01(rng) < 0.3
                                       ? chain::HtlcKind::kInverse
                                       : chain::HtlcKind::kStandard;
      const chain::TxId deploy = ledger.submit(chain::DeployHtlcPayload{
          alice, bob, chain::Amount::from_tokens(1.0), secret.commitment(),
          queue.now() + 4.0 + 6.0 * math::uniform01(rng), kind});
      locks.push_back({ledger.pending_contract_of(deploy), secret, kind});
      return;
    }
    const Lock& lock = locks[static_cast<std::size_t>(
        math::uniform01(rng) * static_cast<double>(locks.size()))];
    if (roll < 0.75) {
      // Mostly the right preimage; sometimes a wrong one (the claim fails
      // but its preimage still reaches the secret index).
      const crypto::Secret secret = math::uniform01(rng) < 0.8
                                        ? lock.secret
                                        : crypto::Secret::generate(rng);
      ledger.submit(chain::ClaimHtlcPayload{lock.id, secret, bob});
    } else if (roll < 0.85) {
      ledger.submit(chain::CancelHtlcPayload{lock.id, alice});
    } else {
      ledger.submit(chain::TransferPayload{alice, bob,
                                           chain::Amount::from_tokens(0.5)});
    }
  };

  std::size_t sweeps = 0, txs_retired = 0, htlcs_retired = 0;
  std::size_t inversions = 0, kept_pending = 0, kept_locked = 0;
  const auto compact_and_check = [&](double watermark) {
    SCOPED_TRACE(::testing::Message() << "watermark=" << watermark);
    // Reference: the full-scan predicate over every id ever assigned (ids
    // are dense from 1), evaluated before the sweep.
    std::set<std::uint64_t> txs_expected, txs_must_survive;
    double latest_confirm = 0.0;
    for (std::uint64_t id = 1; id <= ledger.transaction_count(); ++id) {
      const chain::Transaction* tx = ledger.find_transaction({id});
      if (tx == nullptr) continue;
      const bool done = tx->status == chain::TxStatus::kDropped
                            ? tx->submitted_at <= watermark
                            : tx->status != chain::TxStatus::kPending &&
                                  tx->confirmed_at <= watermark;
      if (!done) txs_expected.insert(id);
      // Confirmation order out of id order: a FIFO by id would not do.
      if (tx->status != chain::TxStatus::kDropped) {
        if (tx->confirmed_at < latest_confirm) ++inversions;
        latest_confirm = std::max(latest_confirm, tx->confirmed_at);
      }
      if (tx->status == chain::TxStatus::kPending) txs_must_survive.insert(id);
    }
    std::set<std::uint64_t> htlcs_expected, htlcs_must_survive;
    for (const chain::HtlcContract& contract : ledger.htlcs()) {
      const std::uint64_t id = contract.id.value;
      const bool locked = contract.state == chain::HtlcState::kLocked;
      if (locked || contract.settled_at > watermark) htlcs_expected.insert(id);
      if (locked) htlcs_must_survive.insert(id);
    }
    kept_pending += txs_must_survive.size();
    kept_locked += htlcs_must_survive.size();

    const chain::CompactionReport report = ledger.compact(watermark);
    ++sweeps;
    txs_retired += report.transactions_retired;
    htlcs_retired += report.htlcs_retired;

    std::set<std::uint64_t> txs_left;
    for (std::uint64_t id = 1; id <= ledger.transaction_count(); ++id) {
      if (ledger.find_transaction({id}) != nullptr) txs_left.insert(id);
    }
    std::set<std::uint64_t> htlcs_left;
    for (const chain::HtlcContract& contract : ledger.htlcs()) {
      htlcs_left.insert(contract.id.value);
    }
    EXPECT_EQ(txs_left, txs_expected);
    EXPECT_EQ(htlcs_left, htlcs_expected);
    for (const std::uint64_t id : txs_must_survive) {
      EXPECT_EQ(txs_left.count(id), 1u) << "pending tx " << id;
    }
    for (const std::uint64_t id : htlcs_must_survive) {
      EXPECT_EQ(htlcs_left.count(id), 1u) << "locked htlc " << id;
    }

    std::vector<chain::TxId> all_ids;
    for (std::uint64_t id = 1; id <= ledger.transaction_count(); ++id) {
      all_ids.push_back({id});
    }
    const auto expected = rescan_secrets(ledger, all_ids, queue.now());
    const auto got = ledger.visible_secrets();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].secret.bytes(), expected[i].secret.bytes());
      EXPECT_EQ(got[i].contract.value, expected[i].contract.value);
      EXPECT_EQ(got[i].visible_since, expected[i].visible_since);
    }
  };

  // Sweeps land before, inside and after the halt; one watermark repeats
  // and one moves backwards.
  const std::vector<std::pair<double, double>> sweeps_at = {
      {12.0, 9.5},  {18.0, 16.0}, {22.0, 21.0}, {22.5, 21.0},
      {26.0, 23.5}, {30.0, 17.0}, {41.0, 38.5}, {70.0, 69.0}};
  std::size_t next_sweep = 0;
  for (int step = 1; step <= 280; ++step) {
    const double t = 0.25 * step;
    queue.run_until(t);
    if (t <= 45.0) {
      submit_step();
      if (step % 3 == 0) submit_step();
    }
    while (next_sweep < sweeps_at.size() && sweeps_at[next_sweep].first == t) {
      compact_and_check(sweeps_at[next_sweep].second);
      ++next_sweep;
    }
    if (t == 33.0) {
      // A watermark exactly on a settlement time (also the confirmation
      // time of the settling transaction): both records must retire.
      std::vector<double> settled;
      for (const chain::HtlcContract& contract : ledger.htlcs()) {
        if (contract.state != chain::HtlcState::kLocked &&
            contract.settled_at < t) {
          settled.push_back(contract.settled_at);
        }
      }
      ASSERT_FALSE(settled.empty());
      std::sort(settled.begin(), settled.end());
      compact_and_check(settled[settled.size() / 2]);
    }
  }
  ASSERT_EQ(next_sweep, sweeps_at.size());
  // The scenario exercised every retirement path.
  EXPECT_GT(faults.dropped(), 0u);
  EXPECT_GT(faults.delayed(), 0u);
  EXPECT_GT(txs_retired, 0u);
  EXPECT_GT(htlcs_retired, 0u);
  EXPECT_GT(inversions, 0u);
  EXPECT_GT(kept_pending, 0u);
  EXPECT_GT(kept_locked, 0u);
  EXPECT_EQ(sweeps, sweeps_at.size() + 1);
}

// ---------------------------------------------------------------------------
// Block production over a compacting ledger
// ---------------------------------------------------------------------------

TEST(BlockProducer, SealsAcrossLogTruncation) {
  LedgerFixture fx;
  chain::BlockProducer producer(fx.ledger, fx.queue, /*block_interval=*/5.0);
  producer.start();
  fx.deploy_and_claim(/*expiry=*/30.0);
  fx.queue.run_until(5.0);  // first seal at t=5, both txs confirmed by t=4
  ASSERT_EQ(producer.blocks().size(), 1u);
  EXPECT_EQ(producer.blocks()[0].transactions.size(), 2u);

  fx.ledger.compact(4.5);  // truncates both sealed log entries
  const auto [deploy2, claim2] = fx.deploy_and_claim(/*expiry=*/30.0);
  fx.queue.run_until(10.0);  // second seal at t=10
  ASSERT_EQ(producer.blocks().size(), 2u);
  // The producer's global log cursor survives the truncation: the second
  // block holds exactly the two new confirmations, no duplicates, no skips.
  const std::vector<chain::TxId> expected{deploy2, claim2};
  EXPECT_EQ(producer.blocks()[1].transactions, expected);
  // Proofs over the live block still work (verification needs the records,
  // so it is only available for transactions that survived compaction).
  const auto proof = producer.prove_inclusion(claim2);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(
      producer.verify_inclusion(fx.ledger.transaction(claim2), *proof));
}

// ---------------------------------------------------------------------------
// Compensated accumulation
// ---------------------------------------------------------------------------

TEST(NeumaierSum, MatchesLongDoubleReferenceAtAMillionSamples) {
  // Pathological mix: alternating +-1e12 terms (which cancel EXACTLY in
  // pairs, so the true total is just the sum of the small terms) plus a
  // small positive drift.  Naive double addition absorbs every small term
  // into the 1e12-magnitude running sum (1e-6 < ulp(1e12)/2) and loses the
  // drift entirely; Neumaier compensation recovers it.
  math::Xoshiro256 rng(0x5EED);
  math::NeumaierSum compensated;
  double naive = 0.0;
  long double reference = 0.0L;  // smalls only; the bigs cancel exactly
  for (int i = 0; i < 1'000'000; ++i) {
    const double big = (i % 2 == 0 ? 1.0 : -1.0) * 1e12;
    const double small = 1e-6 * math::uniform01(rng);
    compensated.add(big);
    compensated.add(small);
    naive += big;
    naive += small;
    reference += static_cast<long double>(small);
  }
  const double exact = static_cast<double>(reference);
  ASSERT_GT(exact, 0.1);  // the drift is macroscopic
  const double comp_err = std::abs(compensated.value() - exact);
  const double naive_err = std::abs(naive - exact);
  // Compensation recovers the reference to ~1 ulp of the total...
  EXPECT_LE(comp_err, 1e-9 * exact)
      << "compensated=" << compensated.value() << " exact=" << exact;
  EXPECT_LE(comp_err, naive_err);
  // ...while the naive sum loses essentially ALL of the drift.
  EXPECT_GT(naive_err, 0.5 * exact);
}

// ---------------------------------------------------------------------------
// Population equivalence: compaction on/off, workers 1/K
// ---------------------------------------------------------------------------

market::PopulationConfig equivalence_config(std::uint64_t sessions = 400) {
  market::PopulationConfig config;
  config.sessions = sessions;
  // Slow arrivals spread the sessions over many simulated hours, so early
  // sessions finish (and become retirable) while later ones are still
  // arriving -- the regime where compaction actually bounds live state.
  config.arrival_rate = 15.0;
  config.seed = 0xE9A1;
  return config;
}

struct TracedRun {
  market::PopulationResult result;
  std::string trace;
};

TracedRun run_traced(market::PopulationConfig config) {
  market::PopulationSim sim(std::move(config));
  obs::TraceRecorder recorder;
  sim.set_trace(&recorder, /*stride=*/7);
  TracedRun out;
  out.result = sim.run();
  out.trace = recorder.to_jsonl();
  return out;
}

/// Asserts every behavioral field matches; retirement telemetry is memory
/// bookkeeping and intentionally excluded.
void expect_equivalent(const market::PopulationResult& a,
                       const market::PopulationResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.orders_cancelled, b.orders_cancelled);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.never_initiated, b.never_initiated);
  EXPECT_EQ(a.aborted_t2, b.aborted_t2);
  EXPECT_EQ(a.aborted_t3, b.aborted_t3);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.starved, b.starved);
  EXPECT_EQ(a.atomicity_lost, b.atomicity_lost);
  EXPECT_EQ(a.stats.initiated, b.stats.initiated);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.expired, b.stats.expired);
  // Bit-identical doubles, not just close.
  EXPECT_EQ(a.stats.mean_predicted_sr, b.stats.mean_predicted_sr);
  EXPECT_EQ(a.stats.latency_p50, b.stats.latency_p50);
  EXPECT_EQ(a.stats.latency_p90, b.stats.latency_p90);
  EXPECT_EQ(a.stats.latency_p99, b.stats.latency_p99);
  EXPECT_EQ(a.stats.lockup_token_a_hours, b.stats.lockup_token_a_hours);
  EXPECT_EQ(a.stats.lockup_token_b_hours, b.stats.lockup_token_b_hours);
  EXPECT_EQ(a.final_price, b.final_price);
  EXPECT_EQ(a.min_price, b.min_price);
  EXPECT_EQ(a.max_price, b.max_price);
  EXPECT_EQ(a.blocks_sealed, b.blocks_sealed);
  EXPECT_EQ(a.txs_included, b.txs_included);
  EXPECT_EQ(a.txs_evicted, b.txs_evicted);
  EXPECT_EQ(a.txs_expired, b.txs_expired);
  EXPECT_EQ(a.rebids, b.rebids);
  EXPECT_EQ(a.fees_paid, b.fees_paid);
  EXPECT_EQ(a.threshold_games, b.threshold_games);
  EXPECT_EQ(a.t1_evaluations, b.t1_evaluations);
  EXPECT_TRUE(a.conserved);
  EXPECT_TRUE(b.conserved);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PopulationEquivalence, CompactionAndWorkersAreBitIdentical) {
  // Full equivalence panel over {compaction off/on} x {workers 1/4/5}:
  // every cell must produce bit-identical results AND a byte-identical
  // trace.  This is the determinism contract of the parallel intra-run
  // engine (docs/MARKET.md) -- the worker count and compaction are
  // wall-clock/memory levers only.  Five workers leave some shard buffers
  // empty in some epochs, so the barrier merges runs of uneven length.
  // The congested config adds evictions and re-bids to the merged intents,
  // and its equal first bids make their merge order decide inclusion and
  // eviction.
  market::PopulationConfig congested = equivalence_config();
  congested.fee_spread = 0.0;
  congested.arrival_rate = 2500.0;
  congested.fee_a.block_capacity = 6;
  congested.fee_b.block_capacity = 6;
  congested.fee_a.mempool_capacity = 24;
  congested.fee_b.mempool_capacity = 24;

  for (const bool fee_pressure : {false, true}) {
    const market::PopulationConfig base =
        fee_pressure ? congested : equivalence_config();
    const TracedRun baseline = run_traced(base);
    SCOPED_TRACE(::testing::Message() << "fee_pressure=" << fee_pressure);
    EXPECT_EQ(baseline.result.compactions, 0u);
    EXPECT_EQ(baseline.result.peak_live_sessions, baseline.result.sessions);
    if (fee_pressure) {
      EXPECT_GT(baseline.result.txs_evicted, 0u);
      EXPECT_GT(baseline.result.rebids, 0u);
    }

    bool saw_compaction = false;
    for (const bool compaction : {false, true}) {
      for (const std::uint64_t workers : {1u, 4u, 5u}) {
        if (!compaction && workers == 1) continue;
        market::PopulationConfig config = base;
        config.compaction.enabled = compaction;
        config.compaction.horizon = 2.0;
        config.compaction.interval = 16;
        config.workers = workers;
        const TracedRun cell = run_traced(std::move(config));
        SCOPED_TRACE(::testing::Message() << "compaction=" << compaction
                                          << " workers=" << workers);
        expect_equivalent(baseline.result, cell.result);
        // TRACE byte-identity, not just equal aggregates.
        EXPECT_EQ(baseline.trace, cell.trace);
        if (compaction) {
          // And the compaction actually happened.
          EXPECT_GT(cell.result.compactions, 0u);
          EXPECT_GT(cell.result.sessions_retired, 0u);
          EXPECT_GT(cell.result.txs_retired, 0u);
          // Only the slow arrivals finish sessions while others arrive.
          if (!fee_pressure) {
            EXPECT_LT(cell.result.peak_live_sessions, cell.result.sessions);
          }
          saw_compaction = true;
        }
      }
    }
    EXPECT_TRUE(saw_compaction);
  }
}

TEST(PopulationEquivalence, AggressiveRetirementUnderFeePressure) {
  // Satellite regression: congested fee markets produce eviction/expiry
  // notifications that can fire for sessions already retired; each must be
  // a checked no-op, and the run must stay equivalent to the uncompacted
  // one in every behavioral field.
  market::PopulationConfig congested = equivalence_config(500);
  congested.arrival_rate = 2500.0;
  congested.fee_a.block_capacity = 6;
  congested.fee_b.block_capacity = 6;
  congested.fee_a.mempool_capacity = 24;
  congested.fee_b.mempool_capacity = 24;

  const TracedRun baseline = run_traced(congested);
  ASSERT_GT(baseline.result.txs_evicted, 0u);
  ASSERT_GT(baseline.result.starved, 0u);

  market::PopulationConfig churning = congested;
  churning.compaction.enabled = true;
  churning.compaction.horizon = 1.0;  // as aggressive as the gate allows
  churning.compaction.interval = 1;   // sweep on every finalization
  const TracedRun churned = run_traced(churning);

  expect_equivalent(baseline.result, churned.result);
  EXPECT_EQ(baseline.trace, churned.trace);
  EXPECT_GT(churned.result.sessions_retired, 0u);
  EXPECT_GT(churned.result.accounts_retired, 0u);
  EXPECT_GT(churned.result.log_truncated, 0u);
  // The retired set itself, pinned: a sweep that selected different
  // records would keep every behavioral field above but move these.
  EXPECT_EQ(churned.result.txs_retired, 86u);
  EXPECT_EQ(churned.result.htlcs_retired, 32u);
  EXPECT_EQ(churned.result.log_truncated, 86u);
  EXPECT_EQ(churned.result.accounts_retired, 1316u);

  // Same churn under parallel workers: eviction drops, merge-expired
  // intents and retirement sweeps must still replay bit-identically.
  market::PopulationConfig parallel = churning;
  parallel.workers = 3;
  const TracedRun parallel_run = run_traced(std::move(parallel));
  expect_equivalent(baseline.result, parallel_run.result);
  EXPECT_EQ(baseline.trace, parallel_run.trace);
}

TEST(PopulationEquivalence, ShardSweepsRetireTheSameRecords) {
  // Each worker shard retires its own sessions' accounts and sweeps its
  // own ledger pair, so the records retired are the same at every worker
  // count; only the number of ledger sweeps scales (two per shard).
  const auto run = [](std::uint64_t workers) {
    market::PopulationConfig config = equivalence_config();
    config.compaction.enabled = true;
    config.compaction.horizon = 2.0;
    config.compaction.interval = 16;
    config.workers = workers;
    market::PopulationSim sim(std::move(config));
    return sim.run();
  };
  const market::PopulationResult one = run(1);
  ASSERT_GT(one.compactions, 0u);
  ASSERT_GT(one.accounts_retired, 0u);
  ASSERT_GT(one.htlcs_retired, 0u);
  for (const std::uint64_t workers : {2u, 3u, 4u}) {
    const market::PopulationResult r = run(workers);
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    EXPECT_EQ(r.sessions_retired, one.sessions_retired);
    EXPECT_EQ(r.accounts_retired, one.accounts_retired);
    EXPECT_EQ(r.txs_retired, one.txs_retired);
    EXPECT_EQ(r.htlcs_retired, one.htlcs_retired);
    EXPECT_EQ(r.log_truncated, one.log_truncated);
    EXPECT_EQ(r.compactions, workers * one.compactions);
  }
}

TEST(PopulationEquivalence, ValidatesRetirementKnobs) {
  market::PopulationConfig config = equivalence_config();
  config.workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = equivalence_config();
  config.workers = 257;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = equivalence_config();
  config.compaction.enabled = true;
  config.compaction.horizon = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = equivalence_config();
  config.compaction.enabled = true;
  config.compaction.interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace swapgame
