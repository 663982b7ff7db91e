#include "population_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "model/solver_cache.hpp"
#include "model/timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/thread_pool.hpp"

namespace swapgame::market {

namespace {

// Stream indices of the non-session RNG streams (session streams use the
// session index, which stays far below these).
constexpr std::uint64_t kArrivalStream = 1'000'000'007ULL;
constexpr std::uint64_t kPriceStream = 2'000'000'011ULL;

/// Where a session outcome is counted; the counter's name is its trace
/// label.
struct Tally {
  std::uint64_t PopulationResult::*counter;
  const char* label;
};

/// The one mapping from a session's SwapOutcome (indexed by value) to its
/// result counter.  A transaction the fee market starved ends the swap in
/// the machine's give-up outcomes: a starved lock (kFaultAborted) or
/// reveal (kTimelockExpiredBoth) refunds both sides; a starved claim after
/// the reveal (kBobMissedT4) lets Alice take Bob's token-b and refunds her
/// token-a -- atomicity lost.
constexpr Tally kTally[] = {
    {&PopulationResult::never_initiated, "never_initiated"},  // kNotInitiated
    {&PopulationResult::aborted_t2, "aborted_t2"},      // kBobDeclinedT2
    {&PopulationResult::aborted_t3, "aborted_t3"},      // kAliceDeclinedT3
    {&PopulationResult::atomicity_lost, "atomicity_lost"},  // kBobMissedT4
    {&PopulationResult::completed, "completed"},        // kSuccess
    {&PopulationResult::atomicity_lost, "atomicity_lost"},  // kAlice/
    {&PopulationResult::atomicity_lost, "atomicity_lost"},  // kBobLostAtomicity
    {&PopulationResult::starved, "starved"},  // kTimelockExpiredBoth
    {&PopulationResult::starved, "starved"},  // kFaultAborted
};
static_assert(std::size(kTally) ==
              static_cast<std::size_t>(proto::SwapOutcome::kFaultAborted) + 1);

[[nodiscard]] std::int64_t quantize(double x, double tick) {
  return std::llround(x / tick);
}

/// Nearest-rank percentile of a SORTED sample (p in (0, 1]).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

}  // namespace

std::vector<TraderType> PopulationConfig::default_types() {
  // Patient/base/impatient alpha-r mixes straddling the Table III agent;
  // base-type traders arrive twice as often as either tail.
  return {TraderType{{0.45, 0.008}, 1.0}, TraderType{{0.30, 0.010}, 2.0},
          TraderType{{0.18, 0.014}, 1.0}};
}

void PopulationConfig::validate() const {
  const auto positive = [](double v, const char* what) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument(std::string("PopulationConfig: ") + what +
                                  " must be positive and finite");
    }
  };
  if (sessions == 0) {
    throw std::invalid_argument("PopulationConfig: sessions must be >= 1");
  }
  positive(arrival_rate, "arrival_rate");
  positive(tick, "tick");
  positive(cancel_after, "cancel_after");
  positive(p0, "p0");
  positive(tau_a, "tau_a");
  positive(tau_b, "tau_b");
  positive(eps_b, "eps_b");
  if (!(limit_spread > 0.0) || !(limit_spread < 1.0)) {
    throw std::invalid_argument(
        "PopulationConfig: limit_spread must be in (0, 1)");
  }
  if (!(eps_b < tau_b)) {
    throw std::invalid_argument("PopulationConfig: requires eps_b < tau_b");
  }
  if (!(impact >= 0.0) || !std::isfinite(impact)) {
    throw std::invalid_argument("PopulationConfig: impact must be >= 0");
  }
  if (!(expiry_slack >= 0.0) || !std::isfinite(expiry_slack)) {
    throw std::invalid_argument("PopulationConfig: expiry_slack must be >= 0");
  }
  if (!(base_fee >= 0.0) || !(fee_spread >= 0.0)) {
    throw std::invalid_argument(
        "PopulationConfig: base_fee and fee_spread must be >= 0");
  }
  if (!(rebid_factor > 1.0)) {
    throw std::invalid_argument("PopulationConfig: rebid_factor must be > 1");
  }
  if (!(max_fee >= base_fee)) {
    throw std::invalid_argument("PopulationConfig: max_fee must be >= base_fee");
  }
  if (workers == 0 || workers > 256) {
    throw std::invalid_argument("PopulationConfig: workers must be in [1, 256]");
  }
  if (compaction.enabled) {
    positive(compaction.horizon, "compaction.horizon");
    if (compaction.interval == 0) {
      throw std::invalid_argument(
          "PopulationConfig: compaction.interval must be >= 1");
    }
  }
  gbm.validate();
  fee_a.validate();
  fee_b.validate();
  if (types.empty()) {
    throw std::invalid_argument("PopulationConfig: types must be non-empty");
  }
  // run() solves every type pair before the first arrival.
  if (types.size() > 16) {
    throw std::invalid_argument("PopulationConfig: at most 16 trader types");
  }
  for (const TraderType& t : types) {
    t.agent.validate();
    positive(t.weight, "type weight");
  }
}

PopulationSim::PopulationSim(PopulationConfig config)
    : config_(std::move(config)) {
  if (config_.types.empty()) config_.types = PopulationConfig::default_types();
  config_.validate();
  chain::ChainParams params_a;
  params_a.id = chain::ChainId::kChainA;
  params_a.confirmation_time = config_.tau_a;
  params_a.mempool_visibility = std::min(config_.eps_b, 0.5 * config_.tau_a);
  chain::ChainParams params_b;
  params_b.id = chain::ChainId::kChainB;
  params_b.confirmation_time = config_.tau_b;
  params_b.mempool_visibility = config_.eps_b;
  // The rules are solved in run(); sessions keep pointers to the slots.
  strategies_.resize(config_.types.size() * config_.types.size());
  // Every queue buckets its far events by epoch: a shard's heap then holds
  // one epoch's events, not every pending refund and watchdog.
  queue_.set_bucket_width(epoch());
  shards_.reserve(config_.workers);
  for (std::uint64_t w = 0; w < config_.workers; ++w) {
    shards_.push_back(std::make_unique<Shard>(*this, params_a, params_b));
    shards_.back()->queue.set_bucket_width(epoch());
  }
  if (config_.workers > 1) {
    pool_ = std::make_unique<sweep::ThreadPool>(
        static_cast<unsigned>(config_.workers - 1));
  }
  // A sealed block comes back through the sink: each owner shard lands its
  // share of the block, in block order, in ONE event at the seal time,
  // submitting the payloads to ITS ledger -- which is what lets one global
  // fee market arbitrate block space across per-worker ledger pairs.  A
  // seal schedules nothing else on shard queues, so a block's landings are
  // contiguous in each shard's (when, seq) order and one event can run
  // them all.  A dropped intent comes back with its payload for a re-bid.
  const FeeMarket::BlockSink on_block =
      [this](std::span<FeeMarket::Intent> block, double seal_time) {
        for (FeeMarket::Intent& tx : block) {
          shards_[(tx.owner_tag >> 2) % shards_.size()]->landings.push_back(
              std::move(tx));
        }
        for (const auto& shp : shards_) {
          Shard& sh = *shp;
          const std::uint32_t begin = sh.landings_scheduled;
          const auto end = static_cast<std::uint32_t>(sh.landings.size());
          if (begin == end) continue;
          sh.landings_scheduled = end;
          sh.queue.schedule_at(seal_time, [&sh, begin, end] {
            sh.sim->land(sh, begin, end);
          });
        }
      };
  const FeeMarket::DropSink on_drop = [this](std::uint64_t tag,
                                             chain::TxPayload payload,
                                             DropReason reason) {
    handle_drop(tag >> 2, static_cast<int>(tag & 3), std::move(payload),
                reason);
  };
  market_a_ =
      std::make_unique<FeeMarket>(config_.fee_a, queue_, on_block, on_drop);
  market_b_ =
      std::make_unique<FeeMarket>(config_.fee_b, queue_, on_block, on_drop);
  arrival_rng_ = session_rng(config_.seed, kArrivalStream);
  price_rng_ = session_rng(config_.seed, kPriceStream);
  price_ = window_price_ = min_price_ = max_price_ = config_.p0;
}

PopulationSim::~PopulationSim() = default;

PopulationSim::Shard::Shard(PopulationSim& owner, const chain::ChainParams& a,
                            const chain::ChainParams& b)
    : sim(&owner),
      ledger_a(a, queue),
      ledger_b(b, queue),
      env{.queue = &queue,
          .ledgers = ledgers,
          .sink = this,
          .path = this,
          .setup = &owner.swap_options_} {}

// --- decision thresholds ---------------------------------------------------

model::SwapParams PopulationConfig::pair_params(std::uint32_t buyer_type,
                                                std::uint32_t seller_type,
                                                double p_t0) const {
  model::SwapParams params;
  params.alice = types[buyer_type].agent;  // buyer locks first
  params.bob = types[seller_type].agent;
  params.tau_a = tau_a;
  params.tau_b = tau_b;
  params.eps_b = eps_b;
  params.p_t0 = p_t0;
  params.gbm = gbm;
  return params;
}

PairRule PairRule::solve(const model::SwapParams& unit) {
  // The scaling holds for BasicGame only: a collateral Q fixed in tokens
  // (CollateralGame) does not scale with P*, so a collateralized game
  // would need a solve per P* again.
  const model::BasicGame game(unit, 1.0);
  PairRule rule;
  rule.t3_ratio = game.alice_t3_cutoff();
  rule.t2_unit = game.bob_t2_region();
  rule.t2_roots = game.t2_roots();
  rule.band = model::cached_feasible_band(unit);
  if (!rule.band.viable) return rule;
  // Chebyshev points of the second kind on [lo, hi]: a smooth SR converges
  // geometrically in their count.  Each solve warm-starts from the unit
  // roots scaled to its P*.
  const double mid = 0.5 * (rule.band.lo + rule.band.hi);
  const double half = 0.5 * (rule.band.hi - rule.band.lo);
  std::vector<double> hints(rule.t2_roots.size());
  for (int j = 0; j < kSrNodes; ++j) {
    const double x =
        mid + half * std::cos(std::numbers::pi * j / (kSrNodes - 1));
    for (std::size_t i = 0; i < hints.size(); ++i) {
      hints[i] = rule.t2_roots[i] * x;
    }
    rule.sr_nodes.push_back(x);
    rule.sr_values.push_back(model::BasicGame(unit, x, hints).success_rate());
  }
  return rule;
}

double PairRule::success_rate(double ratio) const noexcept {
  // Barycentric form: weights (-1)^j, halved at both ends.
  double num = 0.0;
  double den = 0.0;
  const std::size_t n = sr_nodes.size();
  for (std::size_t j = 0; j < n; ++j) {
    const double d = ratio - sr_nodes[j];
    if (d == 0.0) return sr_values[j];
    double w = (j % 2 == 0 ? 1.0 : -1.0) / d;
    if (j == 0 || j + 1 == n) w *= 0.5;
    num += w * sr_values[j];
    den += w;
  }
  return num / den;
}

void PopulationSim::solve_pairs() {
  const std::size_t types = config_.types.size();
  parallel(strategies_.size(), [&](std::size_t i) {
    strategies_[i].rule = PairRule::solve(config_.pair_params(
        static_cast<std::uint32_t>(i / types),
        static_cast<std::uint32_t>(i % types), 1.0));
  });
  for (const ThresholdStrategy& strategy : strategies_) {
    ++result_.threshold_games;
    result_.t1_evaluations += strategy.rule.sr_values.size();
  }
}

// --- endogenous price ------------------------------------------------------

void PopulationSim::advance_price_to(double t) {
  if (t <= price_time_) return;
  const math::GbmLaw law(config_.gbm, price_, t - price_time_);
  price_ = law.sample_from_normal(math::normal_inverse_cdf_draw(price_rng_));
  price_time_ = t;
  min_price_ = std::min(min_price_, price_);
  max_price_ = std::max(max_price_, price_);
}

void PopulationSim::apply_impact(double direction) {
  price_ *= std::exp(config_.impact * direction);
  min_price_ = std::min(min_price_, price_);
  max_price_ = std::max(max_price_, price_);
}

// --- workload (serial phase) -----------------------------------------------

void PopulationSim::schedule_next_arrival() {
  if (result_.sessions >= config_.sessions) return;
  const double u = math::uniform01(arrival_rng_);
  const double dt = -std::log1p(-u) / config_.arrival_rate;
  queue_.schedule_in(dt, [this] { on_arrival(); });
}

void PopulationSim::arm_expiry() {
  expiry_armed_ = true;
  queue_.schedule_at(expiries_.front().first, [this] {
    expiry_armed_ = false;
    expire_orders();
    if (!expiries_.empty()) arm_expiry();
  });
}

void PopulationSim::expire_orders() {
  while (!expiries_.empty() && expiries_.front().first <= queue_.now()) {
    const std::uint64_t order_id = expiries_.front().second;
    expiries_.pop_front();
    if (book_.cancel(order_id)) ++result_.orders_cancelled;
  }
}

void PopulationSim::on_arrival() {
  // An order whose patience ends at this very instant leaves the book
  // before this arrival can match it.
  expire_orders();
  ++result_.arrivals;
  const double p = window_price_;

  // Draw the trader: type by weight, side by a coin, limit uniform within
  // the spread and snapped to the tick grid (so every P* is on-grid).
  double total_weight = 0.0;
  for (const TraderType& t : config_.types) total_weight += t.weight;
  double pick = math::uniform01(arrival_rng_) * total_weight;
  std::uint32_t type = 0;
  for (std::uint32_t i = 0; i < config_.types.size(); ++i) {
    pick -= config_.types[i].weight;
    if (pick <= 0.0) {
      type = i;
      break;
    }
  }
  const Side side =
      (arrival_rng_() & 1) ? Side::kBuyTokenB : Side::kSellTokenB;
  const double raw =
      p * (1.0 - config_.limit_spread +
           2.0 * config_.limit_spread * math::uniform01(arrival_rng_));
  const double limit = std::max(
      config_.tick,
      static_cast<double>(quantize(raw, config_.tick)) * config_.tick);

  const std::uint64_t order_id = book_.submit(side, type, limit);
  expiries_.emplace_back(queue_.now() + config_.cancel_after, order_id);
  if (!expiry_armed_) arm_expiry();

  while (auto match = book_.take_match()) spawn_session(*match);
  schedule_next_arrival();
}

void PopulationSim::spawn_session(const Match& match) {
  const std::uint64_t idx = result_.sessions;
  const std::uint32_t buyer_type = match.buy.trader;
  const std::uint32_t seller_type = match.sell.trader;
  // The rest of the session's life runs on its owner shard.
  Shard& sh = *shards_[idx % shards_.size()];
  if (idx % kSessionBlock == 0) sessions_.emplace_back();
  SessionSwap& s = sessions_.back()[idx % kSessionBlock].emplace(
      sh.env, idx, config_.seed, match.rate,
      strategies_[buyer_type * config_.types.size() + seller_type]);
  result_.peak_live_sessions =
      std::max(result_.peak_live_sessions, idx + 1 - session_offset_);
  s.buyer_type = static_cast<std::uint8_t>(buyer_type);
  s.seller_type = static_cast<std::uint8_t>(seller_type);
  s.t0 = queue_.now();
  // Executed flow perturbs the price toward the taker's side (the newer
  // order is the aggressor); applied at the barrier when the session
  // actually initiates.
  s.taker_buys = match.buy.sequence > match.sell.sequence;
  ++result_.sessions;
  sh.queue.schedule_at(s.t0, [this, &sh, idx] { init_session(sh, idx); });
}

// --- sessions (parallel phase) ---------------------------------------------

PopulationSim::SessionSwap::SessionSwap(proto::SwapEnv& env, std::uint64_t idx,
                                        std::uint64_t seed, double p_star,
                                        agents::Strategy& strategy)
    : legs{{0, 1, p_star, 0.0}, {1, 0, 1.0, 0.0}},
      parties{{{"A" + std::to_string(idx)}, &strategy, nullptr},
              {{"B" + std::to_string(idx)}, &strategy, nullptr}},
      // The secret is the first draw of the session's own stream.
      swap({.legs = legs,
            .parties = parties,
            .p_star = p_star,
            .secret_seed = session_rng_seed(seed, idx),
            .tag = idx},
           env) {}

model::Action PopulationSim::ThresholdStrategy::decide(
    agents::Stage stage, const agents::DecisionContext& ctx) {
  bool cont = true;  // t4: claiming always beats forfeiting the token-a lock
  if (stage == agents::Stage::kT1Initiate) {
    cont = rule.initiates(ctx.p_star, ctx.price);  // Alice's band (Eq. 30)
  } else if (stage == agents::Stage::kT2Lock) {
    cont = rule.locks(ctx.p_star, ctx.price);  // Bob's region (Eq. 24)
  } else if (stage == agents::Stage::kT3Reveal) {
    cont = rule.reveals(ctx.p_star, ctx.price);  // Alice's cutoff (Eq. 19)
  }
  return cont ? model::Action::kCont : model::Action::kStop;
}

PopulationSim::SessionSwap* PopulationSim::session(std::uint64_t idx) noexcept {
  // Retired sessions resolve to nullptr: late callbacks (the watchdog of a
  // session finalized early, a fee-market expiry sweep) become checked
  // no-ops rather than dangling deque accesses.
  if (idx < session_offset_) return nullptr;
  return &*sessions_[idx / kSessionBlock - session_offset_ / kSessionBlock]
                    [idx % kSessionBlock];
}

void PopulationSim::init_session(Shard& sh, std::uint64_t idx) {
  SessionSwap& s = *session(idx);  // spawned this epoch, cannot be retired
  const double p = window_price_;
  const double p_star = s.legs[0].amount;
  const PairRule& pair =
      strategies_[s.buyer_type * config_.types.size() + s.seller_type].rule;
  if (trace_ != nullptr && trace_stride_ > 0 && idx % trace_stride_ == 0) {
    // A traced session reports Alice's exact t1 value: one solve, warm-
    // started from the pair's unit roots scaled to this P*.
    std::vector<double> hints = pair.t2_roots;
    for (double& h : hints) h *= p_star;
    const model::BasicGame game(
        config_.pair_params(s.buyer_type, s.seller_type, p), p_star, hints);
    sh.traces.push_back({.stamp = {s.t0, idx, s.bseq++},
                         .start = true,
                         .p_star = p_star,
                         .price = p,
                         .t1_cont = game.alice_t1_cont()});
  }

  // Idealized expiries plus fee-market slack (2x on chain A so the
  // t_b < t_a ordering the atomicity argument needs is preserved), and the
  // fee bids, drawn after the secret from the session's stream.
  const model::Schedule sched = model::idealized_schedule(
      config_.pair_params(s.buyer_type, s.seller_type, p), s.t0);
  s.legs[0].expiry = sched.t_a + 2.0 * config_.expiry_slack;
  s.legs[1].expiry = sched.t_b + config_.expiry_slack;
  math::Xoshiro256 rng = session_rng(config_.seed, idx);
  (void)crypto::Secret::generate(rng);
  for (double& fee : s.fee) {
    fee = config_.base_fee * (1.0 + config_.fee_spread * math::uniform01(rng));
  }

  // Alice's t1 decision and, on cont, her lock's fee-market intent.
  s.swap.start();
  if (!s.swap.initiated()) {
    finalize(sh, idx);
    return;
  }
  sh.inits.push_back(InitRec{Stamp{s.t0, idx, s.bseq++},
                             pair.success_rate(p_star / p),
                             s.taker_buys ? 1.0 : -1.0});

  // Fund exactly what each side locks (leg k is paid by party k);
  // mint-tracking backs the end-of-run conservation check (summed across
  // shards).
  for (std::size_t leg = 0; leg < 2; ++leg) {
    const chain::Amount lock = chain::Amount::from_tokens(s.legs[leg].amount);
    sh.ledgers[leg]->create_account(s.parties[leg].name, lock);
    sh.ledgers[leg]->create_account(s.parties[1 - leg].name, chain::Amount{});
    sh.minted[leg] += lock;
  }

  // Watchdog: by t_a + tau_a every contract of this session has settled
  // (claims land before expiry by deadline construction; refunds confirm
  // tau after expiry), so the terminal classification is decidable.
  sh.queue.schedule_at(
      s.legs[0].expiry + config_.tau_a + config_.fee_a.block_interval,
      [this, &sh, idx] { finalize(sh, idx); });
}

void PopulationSim::submit_intent(Shard& sh, std::uint64_t idx, int stage,
                                  chain::TxPayload payload) {
  SessionSwap& s = *session(idx);  // a live swap or a re-bid's live session
  // Inclusion budgets: Alice's lock gets the slack added to the expiries;
  // Bob's must confirm (tau_b) AND leave room for Alice's claim to be
  // included and confirm before t_b -- two block margins of cushion; a
  // claim must confirm a block before its contract expires.
  const std::size_t leg = stage >> 1;
  const double tau = leg == 0 ? config_.tau_a : config_.tau_b;
  const double block =
      (leg == 0 ? config_.fee_a : config_.fee_b).block_interval;
  const double expiry = s.legs[leg].expiry;
  const double deadline = (stage & 1) != 0 ? expiry - tau - block
                          : leg == 0       ? s.t0 + config_.expiry_slack
                                           : expiry - 2.0 * tau - 2.0 * block;
  const double now = in_parallel_phase_ ? sh.queue.now() : queue_.now();
  if (now > deadline) {
    s.swap.give_up(leg, static_cast<proto::TxRole>(stage & 1));
    return;
  }
  if (in_parallel_phase_) {
    sh.intents.push_back(IntentRec{Stamp{now, idx, s.bseq++}, stage,
                                   std::move(payload), s.fee[leg], deadline});
    return;
  }
  // Serial context (a re-bid after a drop delivery): straight to the market.
  submit_to_market(idx, stage, std::move(payload), s.fee[leg], deadline);
}

void PopulationSim::land(Shard& sh, std::uint32_t begin, std::uint32_t end) {
  for (std::uint32_t i = begin; i < end; ++i) {
    FeeMarket::Intent& included = sh.landings[i];
    const std::uint64_t idx = included.owner_tag >> 2;
    const int stage = static_cast<int>(included.owner_tag & 3);
    SessionSwap* s = session(idx);
    if (s == nullptr) continue;
    chain::Ledger& ledger = *sh.ledgers[stage >> 1];
    const chain::TxId tx = ledger.submit(std::move(included.payload));
    // An included transaction always confirms: each lock is funded exactly,
    // and the inclusion deadlines put every claim's confirmation a block
    // before its contract's expiry.
    s->confirmed[stage] = ledger.transaction(tx).confirmed_at;
    s->swap.landed(stage >> 1, static_cast<proto::TxRole>(stage & 1), tx);
  }
}

void PopulationSim::submit_to_market(std::uint64_t idx, int stage,
                                     chain::TxPayload payload, double fee,
                                     double deadline) {
  FeeMarket& market = (stage >> 1) == 0 ? *market_a_ : *market_b_;
  market.submit(idx * 4 + static_cast<std::uint64_t>(stage),
                std::move(payload), fee, deadline);
}

void PopulationSim::handle_drop(std::uint64_t idx, int stage,
                                chain::TxPayload payload, DropReason reason) {
  SessionSwap* sp = session(idx);
  if (sp == nullptr) return;
  SessionSwap& s = *sp;
  if (s.finalized) return;
  if (reason == DropReason::kEvicted) {
    // Strategic re-bid: escalate the fee while the bid ceiling allows --
    // the resubmission deadline tightens on its own as expiry approaches.
    double& fee = s.fee[stage >> 1];
    const double escalated = fee * config_.rebid_factor;
    if (escalated <= config_.max_fee) {
      fee = escalated;
      ++result_.rebids;
      submit_intent(*shards_[idx % shards_.size()], idx, stage,
                    std::move(payload));
      return;
    }
  }
  // Expired, or the bid ceiling was hit: the stage is starved.  Whatever is
  // locked auto-refunds at expiry.
  s.swap.give_up(stage >> 1, static_cast<proto::TxRole>(stage & 1));
}

void PopulationSim::finalize(Shard& sh, std::uint64_t idx) {
  SessionSwap* sp = session(idx);
  if (sp == nullptr) return;
  SessionSwap& s = *sp;
  if (s.finalized) return;
  s.finalized = true;

  // Latency and capital lockup.  Unclaimed locks refund tau after expiry
  // (the paper's t7/t8 receipt times), which the ledger schedules on its
  // own; the analytic times below equal those events' confirmations.
  FinalRec rec;
  rec.stamp = Stamp{sh.queue.now(), idx, s.bseq++};
  rec.outcome = s.swap.outcome();
  if (rec.outcome == proto::SwapOutcome::kSuccess) {
    rec.latency = std::max(s.confirmed[1], s.confirmed[3]) - s.t0;
  }
  for (std::size_t leg = 0; leg < 2; ++leg) {
    const double locked = s.confirmed[2 * leg];
    if (std::isnan(locked)) continue;
    const double claimed = s.confirmed[2 * leg + 1];
    const double settle =
        !std::isnan(claimed)
            ? claimed
            : s.legs[leg].expiry + (leg == 0 ? config_.tau_a : config_.tau_b);
    (leg == 0 ? rec.lockup_a : rec.lockup_b) =
        s.legs[leg].amount * (settle - locked);
  }
  sh.finals.push_back(rec);

  if (trace_ != nullptr && trace_stride_ > 0 && idx % trace_stride_ == 0) {
    sh.traces.push_back({.stamp = {sh.queue.now(), idx, s.bseq++},
                         .outcome = rec.outcome,
                         .latency = rec.latency});
  }
}

// --- barrier ---------------------------------------------------------------

void PopulationSim::merge_window(double e1) {
  for (const auto& shp : shards_) {
    // Every seal of the serial phase lies before e1, so the drain has
    // landed all of them.
    shp->landings.clear();
    shp->landings_scheduled = 0;
  }

  // Trace events, in one canonical stream regardless of shard count.
  detail::merge_runs(shards_, &Shard::traces, [this](const TraceRec& t) {
    if (t.start) {
      trace_->record(t.stamp.when, obs::TraceKind::kRunStart,
                     {{"session", t.stamp.idx},
                      {"p_star", t.p_star},
                      {"price", t.price},
                      {"alice_t1_cont", t.t1_cont}});
    } else {
      trace_->record(t.stamp.when, obs::TraceKind::kOutcome,
                     {{"session", t.stamp.idx},
                      {"outcome", kTally[static_cast<std::size_t>(t.outcome)].label},
                      {"latency_hours", t.latency}});
    }
  });

  // Initiations: predicted-SR fold + price impacts, in stamp order (the
  // Neumaier sums and the price path are order-sensitive).
  detail::merge_runs(shards_, &Shard::inits, [this](const InitRec& i) {
    predicted_sr_sum_.add(i.sr);
    apply_impact(i.direction);
  });

  // Finalizations: outcome counters, latency sample, lockup folds.
  detail::merge_runs(shards_, &Shard::finals, [this](const FinalRec& f) {
    ++finalized_since_compact_;
    ++(result_.*kTally[static_cast<std::size_t>(f.outcome)].counter);
    if (f.outcome == proto::SwapOutcome::kSuccess) {
      latencies_.push_back(f.latency);
    }
    if (!std::isnan(f.lockup_a)) lockup_a_sum_.add(f.lockup_a);
    if (!std::isnan(f.lockup_b)) lockup_b_sum_.add(f.lockup_b);
  });

  // Fee-market merge: every buffered submission enters the global mempool
  // in stamp order, so contention (evictions, seal priority) is resolved
  // identically at every worker count.  Intents whose deadline already
  // passed get their expiry drop delivered instead of a submission the
  // market would reject.
  detail::merge_runs(shards_, &Shard::intents, [this](IntentRec& rec) {
    if (rec.deadline < queue_.now()) {
      ++merge_expired_;
      const std::uint64_t idx = rec.stamp.idx;
      const int stage = rec.stage;
      queue_.schedule_at(queue_.now(), [this, idx, stage] {
        handle_drop(idx, stage, {}, DropReason::kExpired);  // never re-bid
      });
    } else {
      submit_to_market(rec.stamp.idx, rec.stage, std::move(rec.payload),
                       rec.fee, rec.deadline);
    }
  });

  maybe_compact(e1);
}

void PopulationSim::maybe_compact(double now) {
  if (!config_.compaction.enabled) return;
  if (finalized_since_compact_ < config_.compaction.interval) return;
  finalized_since_compact_ = 0;
  const double watermark = now - config_.compaction.horizon;
  if (!(watermark > 0.0)) return;  // also guarantees watermark < every clock

  // Retire finalized sessions from the deque front.  The accounts can only
  // be folded once every refund has credited them (chain-B refunds confirm
  // after the watchdog when t_b_expiry + tau_b exceeds it), so the
  // retirable range stops at the first session still waiting on a locked
  // contract.
  std::uint64_t end = session_offset_;
  for (; end < result_.sessions; ++end) {
    const SessionSwap& s = *session(end);
    const auto locked = [&s](std::size_t leg) {
      const chain::HtlcContract* c = s.swap.contract(leg);
      return c != nullptr && c->state == chain::HtlcState::kLocked;
    };
    if (!s.finalized || locked(0) || locked(1)) break;
  }

  // Each shard folds its own retired sessions' accounts and sweeps its own
  // ledger pair -- no shared state, so the shards sweep in parallel.  Their
  // tallies fold into the result in shard order.
  struct SweepTally {
    std::uint64_t compactions = 0;
    std::uint64_t accounts_retired = 0;
    std::uint64_t txs_retired = 0;
    std::uint64_t htlcs_retired = 0;
    std::uint64_t log_truncated = 0;
  };
  std::vector<SweepTally> tallies(shards_.size());
  const std::uint64_t width = shards_.size();
  parallel(shards_.size(), [&](std::size_t w) {
    Shard& sh = *shards_[w];
    SweepTally& tally = tallies[w];
    const std::uint64_t first =
        session_offset_ + (w + width - session_offset_ % width) % width;
    for (std::uint64_t idx = first; idx < end; idx += width) {
      const SessionSwap& s = *session(idx);
      if (!s.swap.initiated()) continue;
      for (chain::Ledger* ledger : sh.ledgers) {
        for (const proto::SwapParty& party : s.parties) {
          ledger->retire_account(party.name);
        }
      }
      tally.accounts_retired += 4;
    }
    for (chain::Ledger* ledger : sh.ledgers) {
      const chain::CompactionReport report = ledger->compact(watermark);
      ++tally.compactions;
      tally.txs_retired += report.transactions_retired;
      tally.htlcs_retired += report.htlcs_retired;
      tally.log_truncated += report.log_truncated;
    }
  });
  for (const SweepTally& t : tallies) {
    result_.compactions += t.compactions;
    result_.accounts_retired += t.accounts_retired;
    result_.txs_retired += t.txs_retired;
    result_.htlcs_retired += t.htlcs_retired;
    result_.log_truncated += t.log_truncated;
  }

  result_.sessions_retired += end - session_offset_;
  while (session_offset_ < end) {
    sessions_.front()[session_offset_ % kSessionBlock].reset();
    if (++session_offset_ % kSessionBlock == 0) sessions_.pop_front();
  }
}

double PopulationSim::epoch() const noexcept {
  return std::min(config_.fee_a.block_interval, config_.fee_b.block_interval);
}

void PopulationSim::parallel(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->run_parallel(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

// --- run -------------------------------------------------------------------

PopulationResult PopulationSim::run() {
  if (ran_) throw std::logic_error("PopulationSim::run: already ran");
  ran_ = true;
  solve_pairs();
  schedule_next_arrival();

  const double epoch = this->epoch();
  std::uint64_t k = 0;
  bool first = true;
  while (true) {
    double t_min = queue_.next_time();
    for (const auto& shp : shards_) {
      t_min = std::min(t_min, shp->queue.next_time());
    }
    if (!std::isfinite(t_min)) break;  // every queue drained: done
    // Jump to the epoch containing the earliest pending event (the fp
    // fix-ups keep boundary events in their open-ended [e0, e1) epoch).
    std::uint64_t k_min =
        t_min <= 0.0 ? 0 : static_cast<std::uint64_t>(t_min / epoch);
    while (static_cast<double>(k_min + 1) * epoch <= t_min) ++k_min;
    if (!first) k_min = std::max(k_min, k + 1);
    k = k_min;
    first = false;
    const double e0 = static_cast<double>(k) * epoch;
    const double e1 = static_cast<double>(k + 1) * epoch;

    // The decision price for this epoch: GBM advanced to the epoch start
    // (one draw spanning any skipped empty epochs), impacts folded at the
    // previous barrier.
    advance_price_to(e0);
    window_price_ = price_;

    // Serial phase: arrivals, order-book matching, block seals, drop
    // deliveries and re-bids -- everything that couples sessions.
    if (queue_.drain_before(e1) != 0) {
      global_max_event_time_ = std::max(global_max_event_time_, queue_.now());
    }
    queue_.advance_to(e1);

    // Parallel phase: each shard drains its own queue (session state
    // machines, HTLC confirmations, refunds) up to the barrier, then sorts
    // its effect buffers by stamp for the barrier's merge.
    in_parallel_phase_ = true;
    parallel(shards_.size(), [this, e1](std::size_t w) {
      Shard& sh = *shards_[w];
      if (sh.queue.drain_before(e1) != 0) {
        sh.max_event_time = std::max(sh.max_event_time, sh.queue.now());
      }
      sh.queue.advance_to(e1);
      sh.sort();
    });
    in_parallel_phase_ = false;

    merge_window(e1);
  }

  PopulationResult& r = result_;
  r.stats.matches = r.sessions;
  r.stats.initiated = r.sessions - r.never_initiated;
  r.stats.completed = r.completed;
  r.stats.expired = r.starved + r.atomicity_lost;
  if (r.stats.initiated > 0) {
    r.stats.mean_predicted_sr =
        predicted_sr_sum_.value() / static_cast<double>(r.stats.initiated);
  }
  r.stats.lockup_token_a_hours = lockup_a_sum_.value();
  r.stats.lockup_token_b_hours = lockup_b_sum_.value();
  std::sort(latencies_.begin(), latencies_.end());
  r.stats.latency_p50 = percentile(latencies_, 0.50);
  r.stats.latency_p90 = percentile(latencies_, 0.90);
  r.stats.latency_p99 = percentile(latencies_, 0.99);

  r.final_price = price_;
  r.min_price = min_price_;
  r.max_price = max_price_;
  r.blocks_sealed = market_a_->blocks_sealed() + market_b_->blocks_sealed();
  r.txs_included = market_a_->included() + market_b_->included();
  r.txs_evicted = market_a_->evicted() + market_b_->evicted();
  r.txs_expired = market_a_->expired() + market_b_->expired() + merge_expired_;
  r.fees_paid = market_a_->fees_paid() + market_b_->fees_paid();

  chain::Amount minted[2];
  chain::Amount supply[2];
  double end_time = global_max_event_time_;
  for (const auto& shp : shards_) {
    for (std::size_t leg = 0; leg < 2; ++leg) {
      minted[leg] += shp->minted[leg];
      supply[leg] += shp->ledgers[leg]->total_supply();
    }
    end_time = std::max(end_time, shp->max_event_time);
  }
  r.conserved = supply[0] == minted[0] && supply[1] == minted[1];
  r.end_time = end_time;

  if (metrics_ != nullptr) {
    metrics_->counter("population.sessions").inc(r.sessions);
    metrics_->counter("population.initiated").inc(r.stats.initiated);
    metrics_->counter("population.completed").inc(r.completed);
    metrics_->counter("population.starved").inc(r.starved);
    metrics_->counter("population.atomicity_lost").inc(r.atomicity_lost);
    metrics_->counter("population.rebids").inc(r.rebids);
    metrics_->counter("population.txs_evicted").inc(r.txs_evicted);
    metrics_->counter("population.txs_expired").inc(r.txs_expired);
    metrics_->counter("population.compactions").inc(r.compactions);
    metrics_->counter("population.sessions_retired").inc(r.sessions_retired);
    metrics_->counter("population.txs_retired").inc(r.txs_retired);
    auto& hist =
        metrics_->histogram("population.settlement_latency_hours", 0.0, 48.0,
                            48);
    for (const double l : latencies_) hist.observe(l);
  }
  return r;
}

}  // namespace swapgame::market
