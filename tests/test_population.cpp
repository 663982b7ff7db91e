// Tests for the population-scale market layer (src/market/population):
// fee-market accounting, end-to-end population runs, and the engine's
// market_sim cell (bit-identical across thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "chain/event_queue.hpp"
#include "crypto/secret.hpp"
#include "engine/batch_engine.hpp"
#include "engine/run_spec.hpp"
#include "market/population/fee_market.hpp"
#include "market/population/population_sim.hpp"
#include "math/rng.hpp"
#include "model/basic_game.hpp"

namespace swapgame::market {
namespace {

chain::TxPayload transfer(const char* from, const char* to, double tokens) {
  return chain::TransferPayload{chain::Address{from}, chain::Address{to},
                                chain::Amount::from_tokens(tokens)};
}

/// A fee market whose sinks record every sealed block (owner tags in
/// inclusion order, with the seal time) and every drop delivered.
struct FeeMarketFixture {
  struct Drop {
    std::uint64_t tag = 0;
    chain::TxPayload payload;
    DropReason reason = DropReason::kEvicted;
  };

  chain::EventQueue queue;
  std::vector<std::pair<double, std::vector<std::uint64_t>>> blocks;
  std::vector<Drop> drops;
  FeeMarket market;

  explicit FeeMarketFixture(FeeMarketConfig config)
      : market(
            config, queue,
            [this](std::span<FeeMarket::Intent> block, double seal_time) {
              std::vector<std::uint64_t> tags;
              for (const FeeMarket::Intent& tx : block) {
                tags.push_back(tx.owner_tag);
              }
              blocks.emplace_back(seal_time, std::move(tags));
            },
            [this](std::uint64_t tag, chain::TxPayload payload,
                   DropReason reason) {
              drops.push_back({tag, std::move(payload), reason});
            }) {}

  /// Every included owner tag, in inclusion order across blocks.
  [[nodiscard]] std::vector<std::uint64_t> included() const {
    std::vector<std::uint64_t> tags;
    for (const auto& [seal_time, block] : blocks) {
      tags.insert(tags.end(), block.begin(), block.end());
    }
    return tags;
  }
  [[nodiscard]] std::vector<std::pair<std::uint64_t, DropReason>> dropped()
      const {
    std::vector<std::pair<std::uint64_t, DropReason>> out;
    for (const Drop& d : drops) out.emplace_back(d.tag, d.reason);
    return out;
  }
};

TEST(FeeMarket, ValidatesInput) {
  EXPECT_THROW(FeeMarketConfig({0.0, 4, 8}).validate(), std::invalid_argument);
  EXPECT_THROW(FeeMarketConfig({0.25, 0, 8}).validate(), std::invalid_argument);
  EXPECT_THROW(FeeMarketConfig({0.25, 4, 0}).validate(), std::invalid_argument);

  FeeMarketFixture fx({0.25, 4, 8});
  EXPECT_THROW(fx.market.submit(1, transfer("a", "b", 1.0), -1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(fx.market.submit(1, transfer("a", "b", 1.0), 0.01, -1.0),
               std::invalid_argument);
  EXPECT_THROW(FeeMarket({0.25, 4, 8}, fx.queue, {},
                         [](std::uint64_t, chain::TxPayload, DropReason) {}),
               std::invalid_argument);
  EXPECT_THROW(
      FeeMarket({0.25, 4, 8}, fx.queue,
                [](std::span<FeeMarket::Intent>, double) {}, {}),
      std::invalid_argument);
}

TEST(FeeMarket, IncludesByFeePriorityAndAccountsEveryIntent) {
  // Capacity 2 per block: the two best fees go first, the rest wait.
  FeeMarketFixture fx({0.25, 2, 16});
  const double fees[4] = {0.01, 0.04, 0.02, 0.03};
  for (std::uint64_t i = 0; i < 4; ++i) {
    fx.market.submit(i, transfer("a", "b", 1.0), fees[i], 10.0);
  }
  fx.queue.run();

  EXPECT_TRUE(fx.drops.empty());
  // First block: fee 0.04 then 0.03; second block: 0.02 then 0.01.
  EXPECT_EQ(fx.included(), (std::vector<std::uint64_t>{1, 3, 2, 0}));
  EXPECT_EQ(fx.market.blocks_sealed(), 2u);
  EXPECT_EQ(fx.market.included(), 4u);
  EXPECT_EQ(fx.market.pending(), 0u);
  EXPECT_NEAR(fx.market.fees_paid(), 0.10, 1e-12);
}

TEST(FeeMarket, HandsEachBlockToTheSinkInOneCall) {
  // Capacity 2 per block, five intents: three seals, each handing its
  // block to the sink once, in inclusion order, at the seal time.
  FeeMarketFixture fx({0.25, 2, 16});
  const double fees[5] = {0.01, 0.04, 0.02, 0.03, 0.02};
  for (std::uint64_t i = 0; i < 5; ++i) {
    fx.market.submit(100 + i, transfer("a", "b", 1.0), fees[i], 10.0);
  }
  fx.queue.run();

  ASSERT_EQ(fx.blocks.size(), 3u);
  EXPECT_EQ(fx.blocks[0].first, 0.25);
  EXPECT_EQ(fx.blocks[0].second, (std::vector<std::uint64_t>{101, 103}));
  EXPECT_EQ(fx.blocks[1].first, 0.5);
  EXPECT_EQ(fx.blocks[1].second, (std::vector<std::uint64_t>{102, 104}));
  EXPECT_EQ(fx.blocks[2].first, 0.75);
  EXPECT_EQ(fx.blocks[2].second, (std::vector<std::uint64_t>{100}));
  EXPECT_EQ(fx.market.blocks_sealed(), 3u);
  EXPECT_EQ(fx.market.included(), 5u);
}

TEST(FeeMarket, EqualFeesIncludeInArrivalOrder) {
  FeeMarketFixture fx({0.25, 8, 16});
  for (std::uint64_t i = 0; i < 4; ++i) {
    fx.market.submit(i, transfer("a", "b", 1.0), 0.02, 10.0);
  }
  fx.queue.run();
  EXPECT_EQ(fx.included(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(FeeMarket, EvictsLowestFeeWhenOverCapacity) {
  // Mempool holds 2: the third submission evicts the cheapest bid.
  FeeMarketFixture fx({0.25, 1, 2});
  const double fees[3] = {0.05, 0.01, 0.03};
  for (std::uint64_t i = 0; i < 3; ++i) {
    fx.market.submit(i, transfer("a", "b", 1.0), fees[i], 10.0);
  }
  // Eviction decided synchronously; the drop arrives via the queue.
  EXPECT_EQ(fx.market.pending(), 2u);
  EXPECT_EQ(fx.market.evicted(), 1u);
  EXPECT_TRUE(fx.drops.empty());
  fx.queue.run();

  using Dropped = std::vector<std::pair<std::uint64_t, DropReason>>;
  EXPECT_EQ(fx.dropped(), (Dropped{{1, DropReason::kEvicted}}));  // 0.01 lost
  EXPECT_EQ(fx.market.included(), 2u);
  // Conservation of intents: every submission is included or dropped.
  EXPECT_EQ(fx.market.included() + fx.market.evicted() + fx.market.expired(),
            3u);
}

TEST(FeeMarket, ExpiresIntentsPastTheirDeadline) {
  // Capacity 1 per block: the low bid waits, and its deadline lapses
  // before the second seal reaches it.
  FeeMarketFixture fx({0.25, 1, 16});
  fx.market.submit(0, transfer("a", "b", 1.0), 0.05, 10.0);
  fx.market.submit(1, transfer("a", "b", 1.0), 0.01, 0.3);
  fx.queue.run();

  using Dropped = std::vector<std::pair<std::uint64_t, DropReason>>;
  EXPECT_EQ(fx.dropped(), (Dropped{{1, DropReason::kExpired}}));
  EXPECT_EQ(fx.included(), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(fx.market.included(), 1u);
  EXPECT_EQ(fx.market.expired(), 1u);
  EXPECT_NEAR(fx.market.fees_paid(), 0.05, 1e-12);
}

TEST(FeeMarket, DroppedIntentHandsItsPayloadBack) {
  // Mempool holds 2 and a block 1.  Tag 12 (the cheapest) is evicted by
  // the third submission; tag 11 waits behind tag 10 and its deadline
  // lapses before the second seal.  Each drop hands back the claim exactly
  // as submitted, so its owner can re-bid it.
  FeeMarketFixture fx({0.25, 1, 2});
  math::Xoshiro256 rng{0xD20B};
  const auto claim = [&rng](std::uint64_t contract, const char* claimer) {
    return chain::ClaimHtlcPayload{chain::HtlcId{contract},
                                   crypto::Secret::generate(rng),
                                   chain::Address{claimer}};
  };
  const chain::ClaimHtlcPayload evicted = claim(7, "bob-12");
  const chain::ClaimHtlcPayload expired = claim(9, "bob-11");
  fx.market.submit(12, evicted, 0.001, 10.0);
  fx.market.submit(10, claim(8, "bob-10"), 0.05, 10.0);
  fx.market.submit(11, expired, 0.01, 0.3);
  EXPECT_EQ(fx.market.evicted(), 1u);
  EXPECT_TRUE(fx.drops.empty());  // nothing delivered before the queue runs
  fx.queue.run();

  ASSERT_EQ(fx.drops.size(), 2u);
  const std::pair<std::uint64_t, DropReason> want[2] = {
      {12, DropReason::kEvicted}, {11, DropReason::kExpired}};
  const chain::ClaimHtlcPayload* sent[2] = {&evicted, &expired};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(::testing::Message() << "drop " << i);
    EXPECT_EQ(fx.drops[i].tag, want[i].first);
    EXPECT_EQ(fx.drops[i].reason, want[i].second);
    const auto* back = std::get_if<chain::ClaimHtlcPayload>(&fx.drops[i].payload);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->secret.bytes(), sent[i]->secret.bytes());
    EXPECT_EQ(back->contract.value, sent[i]->contract.value);
    EXPECT_EQ(back->claimer.value, sent[i]->claimer.value);
  }
  EXPECT_EQ(fx.included(), (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(fx.market.expired(), 1u);
}

/// The fee market's contract written the plain way: one map of intents by
/// arrival id and one ordered set of (fee, id) bids.  Seals drop lapsed
/// intents in arrival order, then include the block_capacity best bids
/// (fee descending, oldest first among ties); a full mempool evicts the
/// worst bid (lowest fee, newest first among ties).  Drops reach the sink
/// through the queue at the decision's time.
class ReferenceFeeMarket {
 public:
  ReferenceFeeMarket(const FeeMarketConfig& config, chain::EventQueue& queue,
                     FeeMarket::BlockSink on_block, FeeMarket::DropSink on_drop)
      : config_(config), queue_(&queue), on_block_(std::move(on_block)),
        on_drop_(std::move(on_drop)) {}

  void submit(std::uint64_t owner_tag, chain::TxPayload payload, double fee,
              double inclusion_deadline) {
    const std::uint64_t id = next_id_++;
    intents_.emplace(id, FeeMarket::Intent{std::move(payload), fee,
                                           inclusion_deadline, owner_tag});
    order_.emplace(fee, id);
    if (intents_.size() > config_.mempool_capacity) {
      drop(std::prev(order_.end())->second, DropReason::kEvicted);
    }
    if (!intents_.empty() && !seal_scheduled_) {
      seal_scheduled_ = true;
      queue_->schedule_in(config_.block_interval, [this] { seal(); });
    }
  }

  [[nodiscard]] std::size_t pending() const { return intents_.size(); }
  [[nodiscard]] std::uint64_t blocks_sealed() const { return blocks_sealed_; }
  [[nodiscard]] std::uint64_t included() const { return included_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }
  [[nodiscard]] std::uint64_t expired() const { return expired_; }
  [[nodiscard]] double fees_paid() const { return fees_paid_; }

 private:
  struct BetterBid {
    bool operator()(const std::pair<double, std::uint64_t>& a,
                    const std::pair<double, std::uint64_t>& b) const {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    }
  };

  void seal() {
    seal_scheduled_ = false;
    ++blocks_sealed_;
    const double now = queue_->now();
    std::vector<std::uint64_t> lapsed;
    for (const auto& [id, intent] : intents_) {
      if (intent.deadline < now) lapsed.push_back(id);
    }
    for (const std::uint64_t id : lapsed) drop(id, DropReason::kExpired);
    std::vector<FeeMarket::Intent> block;
    while (!order_.empty() && block.size() < config_.block_capacity) {
      const auto it = intents_.find(order_.begin()->second);
      ++included_;
      fees_paid_ += it->second.fee;
      block.push_back(std::move(it->second));
      order_.erase(order_.begin());
      intents_.erase(it);
    }
    if (!block.empty()) on_block_(block, now);
    if (!intents_.empty() && !seal_scheduled_) {
      seal_scheduled_ = true;
      queue_->schedule_in(config_.block_interval, [this] { seal(); });
    }
  }

  void drop(std::uint64_t id, DropReason reason) {
    const auto it = intents_.find(id);
    order_.erase({it->second.fee, id});
    ++(reason == DropReason::kEvicted ? evicted_ : expired_);
    queue_->schedule_at(queue_->now(),
                        [this, tag = it->second.owner_tag,
                         payload = std::move(it->second.payload),
                         reason]() mutable {
                          on_drop_(tag, std::move(payload), reason);
                        });
    intents_.erase(it);
  }

  FeeMarketConfig config_;
  chain::EventQueue* queue_;
  FeeMarket::BlockSink on_block_;
  FeeMarket::DropSink on_drop_;
  std::map<std::uint64_t, FeeMarket::Intent> intents_;
  std::set<std::pair<double, std::uint64_t>, BetterBid> order_;
  std::uint64_t next_id_ = 1;
  bool seal_scheduled_ = false;
  std::uint64_t blocks_sealed_ = 0;
  std::uint64_t included_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t expired_ = 0;
  double fees_paid_ = 0.0;
};

/// One submission of the random traffic below.
struct TrafficBid {
  double at = 0.0;
  std::uint64_t tag = 0;
  double fee = 0.0;
  double deadline = 0.0;
};

/// Bursty traffic against a small mempool: fees from four levels (ties
/// everywhere), deadlines from a tenth of a block to a dozen blocks out,
/// and idle gaps long enough for the seal chain to stop and restart.
std::vector<TrafficBid> random_traffic(std::uint64_t seed, std::size_t n) {
  static constexpr double kFees[] = {0.01, 0.02, 0.02, 0.03, 0.05};
  math::Xoshiro256 rng{seed};
  std::vector<TrafficBid> out;
  double at = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    at += math::uniform01(rng) < 0.01 ? 2.0 : 0.02 * math::uniform01(rng);
    const double fee = kFees[rng() % std::size(kFees)];
    out.push_back({at, i, fee, at + 0.025 + 3.0 * math::uniform01(rng)});
  }
  return out;
}

/// Everything a market run shows its owner: each block (seal time, tags in
/// order), each drop delivered, the mempool depth after each submission,
/// and the counters at the end.  An evicted bid is re-bid at 1.5x its fee
/// while that stays within 0.1 and its deadline has not passed, so drops
/// re-enter submit().
struct TrafficLog {
  std::vector<std::pair<double, std::vector<std::uint64_t>>> blocks;
  std::vector<std::pair<std::uint64_t, DropReason>> drops;
  std::vector<std::size_t> depth;
  std::uint64_t rebids = 0;
  std::uint64_t blocks_sealed = 0;
  std::uint64_t included = 0;
  std::uint64_t evicted = 0;
  std::uint64_t expired = 0;
  std::uint64_t fees_paid_bits = 0;
  std::size_t pending = 0;
};

template <class Market>
TrafficLog drive(const FeeMarketConfig& config,
                 const std::vector<TrafficBid>& traffic) {
  chain::EventQueue queue;
  TrafficLog log;
  std::map<std::uint64_t, std::pair<double, double>> bids;  // fee, deadline
  std::unique_ptr<Market> market;
  market = std::make_unique<Market>(
      config, queue,
      [&log](std::span<FeeMarket::Intent> block, double seal_time) {
        std::vector<std::uint64_t> tags;
        for (const FeeMarket::Intent& tx : block) tags.push_back(tx.owner_tag);
        log.blocks.emplace_back(seal_time, std::move(tags));
      },
      [&](std::uint64_t tag, chain::TxPayload payload, DropReason reason) {
        log.drops.emplace_back(tag, reason);
        auto& [fee, deadline] = bids.at(tag);
        if (reason == DropReason::kEvicted && 1.5 * fee <= 0.1 &&
            deadline >= queue.now()) {
          fee *= 1.5;
          ++log.rebids;
          market->submit(tag, std::move(payload), fee, deadline);
        }
      });
  for (const TrafficBid& bid : traffic) {
    queue.schedule_at(bid.at, [&, bid] {
      bids[bid.tag] = {bid.fee, bid.deadline};
      market->submit(bid.tag, transfer("a", "b", 1.0), bid.fee, bid.deadline);
      log.depth.push_back(market->pending());
    });
  }
  queue.run();
  log.blocks_sealed = market->blocks_sealed();
  log.included = market->included();
  log.evicted = market->evicted();
  log.expired = market->expired();
  log.fees_paid_bits = std::bit_cast<std::uint64_t>(market->fees_paid());
  log.pending = market->pending();
  return log;
}

TEST(FeeMarket, MatchesReferenceModelUnderRandomTraffic) {
  const FeeMarketConfig configs[] = {
      {0.25, 1, 4}, {0.25, 3, 8}, {0.25, 5, 16}, {0.1, 2, 3}};
  for (const FeeMarketConfig& config : configs) {
    for (const std::uint64_t seed : {0x7AF1Cu, 0x51u, 0xB10Cu}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << config.block_capacity << "/"
                   << config.mempool_capacity << " seed " << seed);
      const std::vector<TrafficBid> traffic = random_traffic(seed, 3000);
      const TrafficLog want = drive<ReferenceFeeMarket>(config, traffic);
      const TrafficLog got = drive<FeeMarket>(config, traffic);
      // The traffic exercises what it is meant to.
      EXPECT_GT(want.evicted, 100u);
      EXPECT_GT(want.expired, 10u);
      EXPECT_GT(want.rebids, 100u);
      EXPECT_EQ(got.rebids, want.rebids);
      EXPECT_EQ(got.blocks, want.blocks);
      EXPECT_EQ(got.drops, want.drops);
      EXPECT_EQ(got.depth, want.depth);
      EXPECT_EQ(got.blocks_sealed, want.blocks_sealed);
      EXPECT_EQ(got.included, want.included);
      EXPECT_EQ(got.evicted, want.evicted);
      EXPECT_EQ(got.expired, want.expired);
      EXPECT_EQ(got.fees_paid_bits, want.fees_paid_bits);
      EXPECT_EQ(got.pending, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier order: each shard sorts its own buffers, the barrier merges them
// ---------------------------------------------------------------------------

/// The stamps merge_runs visits for one buffer kind.
template <class Rec>
std::vector<std::tuple<double, std::uint64_t, std::uint32_t>> merged(
    std::vector<std::unique_ptr<detail::EpochBuffers>>& shards,
    std::vector<Rec> detail::EpochBuffers::*buffer) {
  std::vector<std::tuple<double, std::uint64_t, std::uint32_t>> out;
  detail::merge_runs(shards, buffer, [&out](const Rec& r) {
    out.emplace_back(r.stamp.when, r.stamp.idx, r.stamp.bseq);
  });
  return out;
}

TEST(EpochBuffers, SortThenMergeGivesTheGlobalStampOrder) {
  // Each shard fills its four buffers out of order -- in a random drain
  // order, with many sessions at one instant and several records of one
  // session at one instant -- and some buffers stay empty.  After every
  // shard's sort(), merge_runs must visit each kind in exactly the order a
  // sort of all shards' records gives.
  for (const std::size_t width : {1u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << width << " shards");
    math::Xoshiro256 rng(0xBA55u + width);
    for (int epoch = 0; epoch < 30; ++epoch) {
      std::vector<std::unique_ptr<detail::EpochBuffers>> shards;
      for (std::size_t w = 0; w < width; ++w) {
        shards.push_back(std::make_unique<detail::EpochBuffers>());
      }
      std::vector<std::tuple<double, std::uint64_t, std::uint32_t>> want[4];
      std::vector<std::uint32_t> bseq(64, 0);
      for (int r = 0; r < 160; ++r) {
        const std::uint64_t idx = rng() % bseq.size();
        const std::size_t kind = rng() % 4;
        detail::EpochBuffers& sh = *shards[idx % width];
        if (kind == 0 && width > 1 && idx % width == 1) continue;  // no intents
        const detail::Stamp stamp{0.25 * static_cast<double>(rng() % 3), idx,
                                  bseq[idx]++};
        want[kind].emplace_back(stamp.when, stamp.idx, stamp.bseq);
        switch (kind) {
          case 0: sh.intents.push_back({.stamp = stamp}); break;
          case 1: sh.inits.push_back({.stamp = stamp}); break;
          case 2: sh.finals.push_back({.stamp = stamp}); break;
          default: sh.traces.push_back({.stamp = stamp}); break;
        }
      }
      for (auto& sh : shards) sh->sort();
      for (auto& w : want) std::sort(w.begin(), w.end());
      EXPECT_EQ(merged(shards, &detail::EpochBuffers::intents), want[0]);
      EXPECT_EQ(merged(shards, &detail::EpochBuffers::inits), want[1]);
      EXPECT_EQ(merged(shards, &detail::EpochBuffers::finals), want[2]);
      EXPECT_EQ(merged(shards, &detail::EpochBuffers::traces), want[3]);
      for (auto& sh : shards) {
        EXPECT_TRUE(sh->intents.empty() && sh->inits.empty() &&
                    sh->finals.empty() && sh->traces.empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Population runs
// ---------------------------------------------------------------------------

PopulationConfig small_config(std::uint64_t sessions = 300) {
  PopulationConfig config;
  config.sessions = sessions;
  config.arrival_rate = 600.0;
  config.seed = 0xFEED5;
  return config;
}

TEST(PopulationSim, ValidatesConfig) {
  PopulationConfig config = small_config();
  config.sessions = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.arrival_rate = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.tau_b = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.rebid_factor = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // run() solves every type pair up front, so the type count is capped.
  config = small_config();
  config.types.assign(16, TraderType{});
  EXPECT_NO_THROW(config.validate());
  config.types.assign(17, TraderType{});
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(PairRule, ScaledRulesMatchDirectBasicGameSolves) {
  // The gate for solving each type pair once: the rules PopulationSim
  // decides with, solved at P* = P_t0 = 1, against direct BasicGame solves
  // at random (pair, P*, P_t0).  The default types include non-viable
  // pairs (the impatient alpha = 0.18, r = 0.014 buyer has an empty band
  // against the base and the impatient seller), so both t1 branches of
  // the rule are covered.
  PopulationConfig config;
  config.types = PopulationConfig::default_types();
  const std::uint32_t types = static_cast<std::uint32_t>(config.types.size());
  std::vector<PairRule> rules;
  std::size_t non_viable = 0;
  for (std::uint32_t pair = 0; pair < types * types; ++pair) {
    rules.push_back(
        PairRule::solve(config.pair_params(pair / types, pair % types, 1.0)));
    if (!rules.back().band.viable) {
      ++non_viable;
      EXPECT_TRUE(rules.back().sr_values.empty());
    }
  }
  ASSERT_GT(non_viable, 0u);

  const auto expect_region = [](const PairRule& rule, double p_star,
                                const model::BasicGame& game) {
    const auto& want = game.bob_t2_region().intervals();
    const auto& got = rule.t2_unit.intervals();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].lo * p_star, want[i].lo, 1e-9 * want[i].lo);
      EXPECT_NEAR(got[i].hi * p_star, want[i].hi, 1e-9 * want[i].hi);
    }
  };
  math::Xoshiro256 rng(0x5CA1E);
  int initiating = 0;
  int declining = 0;
  int sr_points = 0;
  for (int k = 0; k < 120; ++k) {
    const auto pair = static_cast<std::uint32_t>(rng() % (types * types));
    const PairRule& rule = rules[pair];
    const double p_star = 0.5 + 4.5 * math::uniform01(rng);
    const double ratio = 0.5 + 1.1 * math::uniform01(rng);  // spans every band
    const double p_t0 = p_star / ratio;
    SCOPED_TRACE(::testing::Message() << "pair=" << pair << " p_star="
                                      << p_star << " p_t0=" << p_t0);
    const model::BasicGame direct(
        config.pair_params(pair / types, pair % types, p_t0), p_star);

    EXPECT_NEAR(rule.t3_ratio * p_star, direct.alice_t3_cutoff(),
                1e-9 * direct.alice_t3_cutoff());
    // Bob's region does not depend on P_t0 (Eq. 24), but BasicGame's
    // strict-preference margin is 1e-10 of a scan window reaching
    // 10 * max(P*, P_t0), so at P_t0 > P* the margin alone moves the roots
    // by up to ~3e-9 relative.  The region is therefore compared with the
    // solve at P_t0 = P*, and with the direct solve where the margins
    // coincide (P_t0 <= P*).
    const model::BasicGame canonical(
        config.pair_params(pair / types, pair % types, p_star), p_star);
    expect_region(rule, p_star, canonical);
    if (p_t0 <= p_star) expect_region(rule, p_star, direct);

    // The decisions themselves.  They may differ only within 1e-9
    // relative of a threshold.
    const auto near_any = [](double x, const std::vector<double>& edges) {
      for (const double edge : edges) {
        if (std::abs(x - edge) <= 1e-9 * std::abs(edge)) return true;
      }
      return false;
    };
    const double price = p_star * (0.3 + 1.4 * math::uniform01(rng));
    const auto cont = [](model::Action a) { return a == model::Action::kCont; };
    if (rule.reveals(p_star, price) != cont(direct.alice_decision_t3(price))) {
      EXPECT_TRUE(near_any(price, {direct.alice_t3_cutoff()}))
          << "t3 decision differs away from the cutoff at " << price;
    }
    if (rule.locks(p_star, price) != cont(canonical.bob_decision_t2(price))) {
      EXPECT_TRUE(near_any(price, canonical.t2_roots()))
          << "t2 decision differs away from the region edges at " << price;
    }
    const bool exact = direct.alice_t1_cont() > p_star;
    if (rule.initiates(p_star, p_t0) != exact) {
      EXPECT_TRUE(near_any(ratio, {rule.band.lo, rule.band.hi}))
          << "t1 decision differs away from the band edges";
    }
    ++(exact ? initiating : declining);
    if (rule.initiates(p_star, p_t0)) {
      EXPECT_NEAR(rule.success_rate(ratio), direct.success_rate(),
                  PairRule::kSrBound);
      ++sr_points;
    }
  }
  EXPECT_GT(initiating, 20);
  EXPECT_GT(declining, 20);
  EXPECT_GT(sr_points, 20);
  EXPECT_LE(PairRule::kSrBound, 1e-4);

  // Straddle every band edge, where a shifted band would first show.
  for (std::uint32_t pair = 0; pair < types * types; ++pair) {
    const PairRule& rule = rules[pair];
    if (!rule.band.viable) continue;
    for (const double edge : {rule.band.lo, rule.band.hi}) {
      for (const double side : {1.0 - 1e-6, 1.0 + 1e-6}) {
        const double p_star = 2.0;
        const double p_t0 = p_star / (edge * side);
        const model::BasicGame direct(
            config.pair_params(pair / types, pair % types, p_t0), p_star);
        EXPECT_EQ(rule.initiates(p_star, p_t0),
                  direct.alice_t1_cont() > p_star)
            << "pair=" << pair << " ratio=" << edge * side;
      }
    }
  }
}

TEST(PopulationSim, NonViablePairNeverInitiates) {
  // One trader type whose pair with itself has an empty feasible band at
  // the default taus and GBM: every session declines at t1.
  PopulationConfig config = small_config(200);
  config.types = {TraderType{{0.18, 0.014}, 1.0}};
  PopulationSim sim(config);
  const PopulationResult r = sim.run();
  EXPECT_EQ(r.sessions, config.sessions);
  EXPECT_EQ(r.never_initiated, r.sessions);
  EXPECT_EQ(r.stats.initiated, 0u);
  EXPECT_TRUE(std::isnan(r.stats.completion_rate()));
  EXPECT_EQ(r.threshold_games, 1u);
  EXPECT_EQ(r.t1_evaluations, 0u);
  EXPECT_TRUE(r.conserved);
}

TEST(PopulationSim, OutcomesPartitionSessionsAndLedgersConserve) {
  PopulationSim sim(small_config());
  const PopulationResult r = sim.run();

  EXPECT_EQ(r.sessions, small_config().sessions);
  EXPECT_EQ(r.never_initiated + r.aborted_t2 + r.aborted_t3 + r.completed +
                r.starved + r.atomicity_lost,
            r.sessions);
  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.arrivals, r.sessions);
  EXPECT_GT(r.blocks_sealed, 0u);
  EXPECT_GT(r.end_time, 0.0);
  EXPECT_GT(r.min_price, 0.0);
  EXPECT_GE(r.max_price, r.min_price);

  // Stats roll-up is consistent with the outcome counts.
  EXPECT_EQ(r.stats.initiated, r.sessions - r.never_initiated);
  EXPECT_EQ(r.stats.completed, r.completed);
  EXPECT_EQ(r.stats.expired, r.starved + r.atomicity_lost);
  ASSERT_GT(r.stats.initiated, 0u);
  const double rate = r.stats.completion_rate();
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  if (r.completed > 0) {
    EXPECT_TRUE(std::isfinite(r.stats.latency_p50));
    EXPECT_LE(r.stats.latency_p50, r.stats.latency_p99);
    // Settlement cannot beat the two confirmation legs.
    EXPECT_GT(r.stats.latency_p50, small_config().tau_a);
  }
}

TEST(PopulationSim, CongestedFeeMarketEvictsAndStarves) {
  PopulationConfig config = small_config(400);
  config.arrival_rate = 2000.0;
  config.fee_a.block_capacity = 6;
  config.fee_b.block_capacity = 6;
  config.fee_a.mempool_capacity = 24;
  config.fee_b.mempool_capacity = 24;
  PopulationSim sim(config);
  const PopulationResult r = sim.run();

  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.txs_evicted, 0u);
  EXPECT_GT(r.rebids, 0u);
  EXPECT_GT(r.starved, 0u);
  // Some sessions still make it through the auction.
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.fees_paid, 0.0);
}

TEST(PopulationSim, UncongestedMarketNeverStarves) {
  // The model regime: block space for every intent and no price impact.
  // Every transaction then lands by its deadline, so no session starves or
  // loses atomicity, and each ends in one of the paper's four outcomes.
  // (Completion is not compared with the predicted SR here: all sessions
  // of a run share one price path.)
  for (const std::uint64_t seed : {0xFEED5u, 0x5EEDu, 0xA11u}) {
    PopulationConfig config = small_config(2000);
    config.seed = seed;
    config.impact = 0.0;
    const std::size_t room = 4 * config.sessions + 1;  // 4 txs per session
    config.fee_a.block_capacity = config.fee_b.block_capacity = room;
    config.fee_a.mempool_capacity = config.fee_b.mempool_capacity = room;
    PopulationSim sim(config);
    const PopulationResult r = sim.run();
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    EXPECT_EQ(r.starved, 0u);
    EXPECT_EQ(r.atomicity_lost, 0u);
    EXPECT_EQ(r.txs_evicted, 0u);
    EXPECT_EQ(r.txs_expired, 0u);
    EXPECT_EQ(r.never_initiated + r.aborted_t2 + r.aborted_t3 + r.completed,
              r.sessions);
    EXPECT_TRUE(r.conserved);
  }
}

TEST(PopulationSim, OrderFlowBalances) {
  // Every order either matches (two per session) or expires on its
  // patience timer -- the run drains, so no order is left resting.  A lost
  // or doubled expiry breaks the balance.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::uint64_t workers : {1u, 3u}) {
      PopulationConfig config = small_config(3000);
      config.seed = seed;
      config.workers = workers;
      config.compaction.enabled = true;
      config.compaction.horizon = 2.0;
      config.compaction.interval = 64;
      PopulationSim sim(config);
      const PopulationResult r = sim.run();
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " workers=" << workers);
      EXPECT_EQ(r.sessions, config.sessions);
      EXPECT_GT(r.orders_cancelled, 0u);
      EXPECT_GT(r.sessions_retired, 0u);
      EXPECT_EQ(r.arrivals, 2 * r.sessions + r.orders_cancelled);
    }
  }
}

TEST(PopulationSim, RunsAreDeterministic) {
  PopulationSim sim_a(small_config(200));
  PopulationSim sim_b(small_config(200));
  const PopulationResult a = sim_a.run();
  const PopulationResult b = sim_b.run();

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.orders_cancelled, b.orders_cancelled);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.starved, b.starved);
  EXPECT_EQ(a.never_initiated, b.never_initiated);
  EXPECT_EQ(a.txs_included, b.txs_included);
  EXPECT_EQ(a.txs_evicted, b.txs_evicted);
  EXPECT_EQ(a.rebids, b.rebids);
  // Bit-identical doubles, not just close.
  EXPECT_EQ(a.final_price, b.final_price);
  EXPECT_EQ(a.fees_paid, b.fees_paid);
  EXPECT_EQ(a.stats.latency_p50, b.stats.latency_p50);
  EXPECT_EQ(a.stats.latency_p99, b.stats.latency_p99);
  EXPECT_EQ(a.stats.lockup_token_a_hours, b.stats.lockup_token_a_hours);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PopulationSim, SeedChangesTheRun) {
  PopulationConfig other = small_config(200);
  other.seed ^= 1;
  PopulationSim sim_a(small_config(200));
  PopulationSim sim_b(other);
  const PopulationResult a = sim_a.run();
  const PopulationResult b = sim_b.run();
  EXPECT_NE(a.final_price, b.final_price);
}

// ---------------------------------------------------------------------------
// Engine integration: the market_sim cell kind
// ---------------------------------------------------------------------------

engine::RunSpec market_spec(std::uint64_t sessions, std::uint64_t seed) {
  engine::RunSpec spec;
  spec.kind = engine::CellKind::kMarketSim;
  spec.population = small_config(sessions);
  spec.population.seed = seed;
  return spec;
}

TEST(EngineMarketSim, CanonicalStringCoversPopulationFields) {
  engine::RunSpec spec = market_spec(200, 7);
  const std::string base = spec.canonical_string();
  EXPECT_NE(base.find("kind=market_sim"), std::string::npos);
  EXPECT_NE(base.find("population.sessions=200"), std::string::npos);
  EXPECT_NE(base.find("population.workers=1"), std::string::npos);

  engine::RunSpec other = market_spec(200, 7);
  other.population.rebid_factor *= 2.0;
  EXPECT_NE(spec.hash(), other.hash());
  // The worker count IS part of the spec hash (a v5 canonical line), even
  // though results are bit-identical across counts: the cache key tracks
  // the full config, the equivalence tests track the semantics.
  other = market_spec(200, 7);
  other.population.workers = 8;
  EXPECT_NE(spec.hash(), other.hash());
  other = market_spec(200, 7);
  other.population.types = PopulationConfig::default_types();
  other.population.types[0].weight += 0.5;
  EXPECT_NE(spec.hash(), other.hash());
  other = market_spec(200, 8);
  EXPECT_NE(spec.hash(), other.hash());
}

TEST(EngineMarketSim, CellMatchesDirectRun) {
  PopulationSim sim(market_spec(200, 7).population);
  const PopulationResult direct = sim.run();
  const engine::RunResult cell = engine::evaluate_cell(market_spec(200, 7));

  EXPECT_TRUE(cell.complete);
  EXPECT_EQ(cell.samples, direct.sessions);
  EXPECT_EQ(cell.at("completed"), static_cast<double>(direct.completed));
  EXPECT_EQ(cell.at("final_price"), direct.final_price);
  EXPECT_EQ(cell.at("latency_p99"), direct.stats.latency_p99);
  EXPECT_EQ(cell.at("fees_paid"), direct.fees_paid);
  EXPECT_EQ(cell.at("conserved"), 1.0);
}

TEST(EngineMarketSim, BatchIsBitIdenticalAcrossThreadCounts) {
  std::vector<engine::RunSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(market_spec(120 + 20 * i, 100 + i));
  }

  engine::EngineConfig serial;
  serial.threads = 1;
  engine::EngineConfig wide;
  wide.threads = 8;
  engine::BatchEngine engine_serial(serial);
  engine::BatchEngine engine_wide(wide);
  const std::vector<engine::RunResult> a = engine_serial.run_batch(specs);
  const std::vector<engine::RunResult> b = engine_wide.run_batch(specs);

  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(a[i].values.size(), b[i].values.size());
    for (std::size_t j = 0; j < a[i].values.size(); ++j) {
      EXPECT_EQ(a[i].values[j].first, b[i].values[j].first);
      // Bitwise comparison: NaN == NaN, -0.0 != 0.0.
      EXPECT_EQ(std::memcmp(&a[i].values[j].second, &b[i].values[j].second,
                            sizeof(double)),
                0)
          << a[i].values[j].first;
    }
    EXPECT_EQ(a[i].to_entry(specs[i].hash()), b[i].to_entry(specs[i].hash()));
  }
}

TEST(EngineMarketSim, ResultRoundTripsThroughCacheEntry) {
  const engine::RunSpec spec = market_spec(120, 3);
  const engine::RunResult result = engine::evaluate_cell(spec);
  const std::string line = result.to_entry(spec.hash());
  const auto parsed = engine::RunResult::parse_entry(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, spec.hash());
  EXPECT_EQ(parsed->second.to_entry(spec.hash()), line);
}

}  // namespace
}  // namespace swapgame::market
