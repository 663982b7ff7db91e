// Population-scale swap-market simulation on shared ledgers.
//
// This layer runs 10^5+ matched swap sessions CONCURRENTLY against shared
// chain state:
//
//   * orders arrive as a Poisson stream into the OrderBook; resting orders
//     are cancelled after a patience window (exercising the id index) --
//     expiries come in arrival order, so one FIFO and one armed global
//     event serve them all;
//   * every match runs the paper's 2-cycle on proto::SwapMachine, the
//     HTLC state machine behind run_swap: the session keeps the machine's
//     per-swap state, and its shard is the machine's environment and
//     sink, so the swap's transactions compete for block space through a
//     per-chain FeeMarket (fee bids, capacity eviction, strategic
//     re-bidding as the timelock expiry approaches);
//   * the token-b price is ENDOGENOUS: a GBM advanced once per epoch and
//     perturbed by executed swap flow (each initiation moves log-P by
//     +-impact toward the taker's side), and every t1/t2/t3 decision (a
//     per-type-pair strategy) reads the epoch price against the rational
//     thresholds of model::BasicGame;
//   * the basic game is homogeneous in price, so run() solves each type
//     pair ONCE, at P* = P_t0 = 1, before the first epoch (PairRule): the
//     t3 cutoff and t2 region as multiples of P*, the t1 feasible band and
//     an SR table in P*/P_t0 -- no solve happens during the epochs;
//   * per-session outcome (the machine's SwapOutcome, counted by one
//     mapping), settlement latency and capital lockup roll up
//     into MarketStats, and the ledgers' total_supply()
//     conservation is checked against the minted totals at the end.
//
// Parallel intra-run execution (docs/MARKET.md).  Time is cut into epochs
// of one block interval.  Each epoch runs three phases:
//
//   1. a SERIAL phase drains the global event queue (arrivals, order
//      expiries, order-book matching, block seals, drop deliveries,
//      re-bids) strictly before the epoch boundary; a seal hands its
//      block over in one call and schedules one landing event on each
//      shard that owns any of its transactions;
//   2. a PARALLEL phase drains K per-worker event-queue shards on a
//      sweep::ThreadPool -- each shard owns the sessions with
//      index % workers == shard and a private Ledger pair, so landings,
//      the swap machines, HTLC lifecycles and refunds advance with no
//      shared mutable state and no lock (the pair rules are read-only);
//      each shard ends its drain by sorting its own effect buffers into
//      canonical (time, session, birth-order) stamp order;
//   3. a BARRIER k-way merges the shards' sorted buffers and folds every
//      cross-shard effect in stamp order: fee-market intents, price
//      impacts, statistics folds, trace events.  Every
//      compaction.interval finalizations a serial walk picks the
//      retirable sessions, and each shard retires their accounts and
//      compacts its own ledgers on the pool.
//
// Because the merge order is canonical and sessions only interact through
// merged state, results and traces are BIT-IDENTICAL at every worker
// count; CI byte-diffs hold the engine to that.  Every random draw comes
// from a counter-keyed stream, so a run is a pure function of its
// PopulationConfig -- the engine exposes it as the cacheable `market_sim`
// cell kind (engine/run_spec.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agents/strategy.hpp"
#include "chain/event_queue.hpp"
#include "chain/ledger.hpp"
#include "market/order_book.hpp"
#include "market/population/epoch_buffers.hpp"
#include "market/population/fee_market.hpp"
#include "math/interval.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "model/basic_game.hpp"
#include "model/params.hpp"
#include "proto/price_path.hpp"
#include "proto/swap_machine.hpp"

namespace swapgame::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace swapgame::obs

namespace swapgame::sweep {
class ThreadPool;
}  // namespace swapgame::sweep

namespace swapgame::market {

/// The independent RNG stream `index` of a run seeded with `seed`:
/// counter-keyed SplitMix seeding (the per-chunk MC stream idiom), so the
/// arrival, price and per-session streams draw the same values for a
/// given index, bit for bit, in any execution order.
[[nodiscard]] constexpr std::uint64_t session_rng_seed(std::uint64_t seed,
                                                       std::uint64_t index) {
  return seed ^ (index * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
}
[[nodiscard]] inline math::Xoshiro256 session_rng(std::uint64_t seed,
                                                  std::uint64_t index) {
  return math::Xoshiro256(session_rng_seed(seed, index));
}

/// Statistics rolled up over a population run's sessions.
struct MarketStats {
  std::size_t matches = 0;
  std::size_t initiated = 0;
  std::size_t completed = 0;
  /// Mean analytic SR (Eq. 31) over initiated sessions, each read from its
  /// type pair's SR table at the session's P*/P_t0 (PairRule::kSrBound).
  double mean_predicted_sr = 0.0;
  /// Sessions whose pending transactions never landed before their
  /// timelocks (fee-market starvation).
  std::size_t expired = 0;
  /// Settlement latency percentiles over COMPLETED sessions, in hours from
  /// the t1 initiation to the final claim confirmation; NaN when no
  /// session completed.
  double latency_p50 = std::numeric_limits<double>::quiet_NaN();
  double latency_p90 = std::numeric_limits<double>::quiet_NaN();
  double latency_p99 = std::numeric_limits<double>::quiet_NaN();
  /// Capital lockup: token-hours spent locked in HTLCs.
  double lockup_token_a_hours = 0.0;
  double lockup_token_b_hours = 0.0;
  /// Completion rate among initiated swaps (empirical SR).  NaN when
  /// nothing was ever initiated -- the same never-initiated convention as
  /// McEstimate::conditional_success_rate; a fake 0.0 here would drag down
  /// averages over runs that merely matched nothing viable.
  [[nodiscard]] double completion_rate() const noexcept {
    return initiated == 0 ? std::numeric_limits<double>::quiet_NaN()
                          : static_cast<double>(completed) /
                                static_cast<double>(initiated);
  }
};

/// A discrete trader archetype; arrivals draw a type per order.  run()
/// solves every (buyer, seller) type pair before the first arrival, so
/// that work grows with the square of the type count (capped at 16).
struct TraderType {
  model::AgentParams agent;
  double weight = 1.0;  ///< relative arrival frequency (need not normalize)
};

/// Full description of one population run (the canonical cell input --
/// every field is part of the engine's RunSpec hash).
struct PopulationConfig {
  // Workload shape.
  std::uint64_t sessions = 2000;  ///< matched sessions to run (arrival
                                  ///< stream stops once reached)
  double arrival_rate = 400.0;    ///< order arrivals per hour (Poisson)
  double limit_spread = 0.06;     ///< limits uniform within +-spread of P
  double tick = 0.02;             ///< price grid for limit quantization
  double cancel_after = 4.0;      ///< patience: resting orders cancel after

  // Endogenous price process.
  double p0 = 2.0;               ///< initial token-b price
  math::GbmParams gbm{};         ///< exogenous drift/volatility
  double impact = 1e-4;          ///< log-price kick per initiated swap

  // Chain substrate (the game-parameter taus; fee congestion adds real
  // latency ON TOP of these, which is the phenomenon under study).
  double tau_a = 3.0;
  double tau_b = 4.0;
  double eps_b = 1.0;
  FeeMarketConfig fee_a{};
  FeeMarketConfig fee_b{};
  /// Extra hours added to the idealized t_b expiry (and 2x to t_a) so
  /// sessions have fee-market slack before their timelocks bind.
  double expiry_slack = 2.0;

  // Fee strategy.
  double base_fee = 1e-3;     ///< bids drawn uniform in [base, base*(1+spread)]
  double fee_spread = 1.0;
  double rebid_factor = 1.6;  ///< fee multiplier after an eviction
  double max_fee = 0.1;       ///< abandon instead of bidding above this

  std::uint64_t seed = 0x9A9;
  /// Trader archetypes (defaults to three alpha/r mixes when empty).
  std::vector<TraderType> types;

  // State retirement (docs/MARKET.md).  Pure memory knobs: results and
  // trace are bit-identical at every setting -- the equivalence tests and
  // the CI byte-diffs hold the sim to that.
  struct Compaction {
    bool enabled = false;
    /// Ledger watermark distance: each sweep retires records whose
    /// lifecycle completed before now - horizon.  Any positive value is
    /// safe (retirement is time-gated against the event clock); smaller
    /// values bound memory tighter.
    double horizon = 24.0;
    /// Finalized sessions between sweeps (amortizes the sweep cost).
    std::uint64_t interval = 2048;
  };
  Compaction compaction{};
  /// Intra-run worker shards (docs/MARKET.md).  Sessions are pinned to
  /// shard index % workers and their per-epoch event drains fan out on a
  /// thread pool of workers-1 helpers plus the caller.  Results and trace
  /// are bit-identical at every setting -- this is a wall-clock knob only.
  std::uint64_t workers = 1;

  /// The default three-type population (patient/base/impatient).
  [[nodiscard]] static std::vector<TraderType> default_types();

  /// Throws std::invalid_argument on non-positive rates/ticks/sessions,
  /// invalid chain/fee parameters or more than 16 trader types.
  void validate() const;

  /// The basic game of a match: the buyer (types[buyer_type]) is Alice,
  /// who locks first; the seller is Bob.  `types` must be filled.
  [[nodiscard]] model::SwapParams pair_params(std::uint32_t buyer_type,
                                              std::uint32_t seller_type,
                                              double p_t0) const;
};

/// The rational threshold rules of model::BasicGame for one (buyer, seller)
/// type pair, in scale-free form.  Every utility of the basic game is
/// linear in the prices and GBM is scale-invariant, so Alice's t3 cutoff
/// (Eq. 18) and Bob's t2 region (Eq. 24) are fixed multiples of P*, and
/// Alice's t1 decision (Eqs. 29/30) and SR (Eq. 31) depend on P*/P_t0
/// alone.  One solve at P* = P_t0 = 1 serves every decision of the pair.
struct PairRule {
  /// SR table size: Chebyshev points spanning the feasible band.
  static constexpr int kSrNodes = 17;
  /// Stated bound on |success_rate(x) - SR(x)| for x in the band.  The
  /// default pairs measure at most 4.4e-7 on a 401-point grid; the gate
  /// test in tests/test_population.cpp checks the bound against direct
  /// BasicGame solves.
  static constexpr double kSrBound = 1e-5;

  double t3_ratio = 0.0;          ///< Alice's t3 cutoff over P*
  math::IntervalSet t2_unit;      ///< Bob's t2 region over P*
  std::vector<double> t2_roots;   ///< its indifference roots at P* = 1
  model::FeasibleBand band;       ///< Alice's t1 band in P*/P_t0
  std::vector<double> sr_nodes;   ///< table abscissae in P*/P_t0
  std::vector<double> sr_values;  ///< SR at sr_nodes; empty when !viable

  /// Solves the pair's game at `unit` (p_t0 = 1, P* = 1).
  [[nodiscard]] static PairRule solve(const model::SwapParams& unit);

  /// Alice initiates at rate p_star and price p_t0.
  [[nodiscard]] bool initiates(double p_star, double p_t0) const noexcept {
    const double ratio = p_star / p_t0;
    return band.viable && band.lo < ratio && ratio < band.hi;
  }
  /// Bob locks at t2.
  [[nodiscard]] bool locks(double p_star, double price) const noexcept {
    return t2_unit.contains(price / p_star);
  }
  /// Alice reveals at t3.
  [[nodiscard]] bool reveals(double p_star, double price) const noexcept {
    return price > t3_ratio * p_star;
  }
  /// SR at P*/P_t0 = ratio, interpolated from the table (barycentric
  /// Chebyshev); meaningful only inside the band.
  [[nodiscard]] double success_rate(double ratio) const noexcept;
};

/// Everything a population run produces.
struct PopulationResult {
  // Workload accounting.
  std::uint64_t arrivals = 0;
  std::uint64_t orders_cancelled = 0;
  std::uint64_t sessions = 0;  ///< matches settled as sessions

  // Outcome counts (sum == sessions).
  std::uint64_t never_initiated = 0;
  std::uint64_t aborted_t2 = 0;
  std::uint64_t aborted_t3 = 0;
  std::uint64_t completed = 0;
  std::uint64_t starved = 0;
  std::uint64_t atomicity_lost = 0;

  /// Rolled-up market statistics (initiated/completed/latency/lockup; the
  /// expired field counts starved + atomicity_lost).
  MarketStats stats;

  // Price path summary.
  double final_price = 0.0;
  double min_price = 0.0;
  double max_price = 0.0;

  // Fee-market telemetry (chain A + chain B).
  std::uint64_t blocks_sealed = 0;
  std::uint64_t txs_included = 0;
  std::uint64_t txs_evicted = 0;
  std::uint64_t txs_expired = 0;
  std::uint64_t rebids = 0;
  double fees_paid = 0.0;

  // Pair-solve telemetry (a function of the config alone).
  std::uint64_t threshold_games = 0;  ///< pair rules solved (types^2)
  std::uint64_t t1_evaluations = 0;   ///< SR table points over all pairs

  // Retirement telemetry (all zero when compaction is off).  compactions
  // scales with the worker count (each worker's ledger pair is swept);
  // everything else here and above is worker-count-invariant.
  std::uint64_t compactions = 0;        ///< ledger sweeps (all shards)
  std::uint64_t sessions_retired = 0;   ///< session records dropped
  std::uint64_t accounts_retired = 0;   ///< balances folded (both chains)
  std::uint64_t txs_retired = 0;        ///< transaction records dropped
  std::uint64_t htlcs_retired = 0;      ///< settled contracts dropped
  std::uint64_t log_truncated = 0;      ///< confirmation-log entries cut
  std::uint64_t peak_live_sessions = 0; ///< high-water live session count

  /// Ledger conservation: total_supply() == minted on both chains at end
  /// (summed across worker shards).
  bool conserved = false;
  double end_time = 0.0;  ///< simulation time of the last processed event
};

/// One-shot simulator: construct, optionally attach sinks, run().
class PopulationSim {
 public:
  explicit PopulationSim(PopulationConfig config);
  ~PopulationSim();

  PopulationSim(const PopulationSim&) = delete;
  PopulationSim& operator=(const PopulationSim&) = delete;

  /// Optional metrics sink: population_* counters and the settlement
  /// latency histogram land here during run().  Must outlive run().
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  /// Optional trace sink: records run-start/outcome events for every
  /// trace_stride-th session (0 disables).  Must outlive run().
  void set_trace(obs::TraceRecorder* trace, std::uint64_t stride) noexcept {
    trace_ = trace;
    trace_stride_ = stride;
  }

  /// Runs the population to completion (every queue drains: arrivals stop
  /// at the session target and every HTLC settles or refunds).
  /// Callable once.
  [[nodiscard]] PopulationResult run();

 private:
  // The barrier's stamp-ordered effect records (epoch_buffers.hpp).
  using Stamp = detail::Stamp;
  using IntentRec = detail::IntentRec;
  using InitRec = detail::InitRec;
  using FinalRec = detail::FinalRec;
  using TraceRec = detail::TraceRec;

  /// One worker shard: a private event queue and ledger pair shared by
  /// its sessions' swaps (their proto::SwapEnv), plus the per-epoch effect
  /// buffers it inherits.  Sessions with index % workers == shard live
  /// here; only the owning worker touches any of it during the parallel
  /// phase and the barrier's sweep.  The shard is its swaps' sink -- every transaction
  /// goes through its chain's fee market (PopulationSim::submit_intent) --
  /// and their price feed, quoting the epoch-frozen price.  The serial
  /// phase hands it the transactions that sealed blocks included
  /// (`landings`), one landing event per seal.
  struct Shard final : proto::SwapSink, proto::PricePath, detail::EpochBuffers {
    Shard(PopulationSim& owner, const chain::ChainParams& a,
          const chain::ChainParams& b);

    PopulationSim* sim;
    chain::EventQueue queue;
    chain::Ledger ledger_a;
    chain::Ledger ledger_b;
    chain::Ledger* ledgers[2] = {&ledger_a, &ledger_b};  ///< by leg
    proto::SwapEnv env;
    chain::Amount minted[2];  ///< by leg
    /// This epoch's sealed transactions in seal order; the first
    /// `landings_scheduled` already have their landing event.
    std::vector<FeeMarket::Intent> landings;
    std::uint32_t landings_scheduled = 0;
    double max_event_time = 0.0;  ///< last processed event (end_time fold)

    /// A transaction's stage, 2 * leg + role (leg 0 on chain A, leg 1 on
    /// chain B), rides in the low bits of its fee-market owner tag
    /// (idx * 4 + stage).  The inclusion deadline is the stage's own.
    void submit(proto::SwapMachine& m, std::size_t leg, proto::TxRole role,
                chain::TxPayload payload, chain::Hours) override {
      sim->submit_intent(*this, m.tag(),
                         static_cast<int>(2 * leg) + static_cast<int>(role),
                         std::move(payload));
    }
    double price_at(chain::Hours) const override { return sim->window_price_; }
  };

  /// A type pair's PairRule as the strategy of its sessions, read at the
  /// decision context's price -- the epoch-frozen price.  The rule is
  /// solved in run() and read-only afterwards, so the sessions of every
  /// shard share one per pair.
  struct ThresholdStrategy final : agents::Strategy {
    model::Action decide(agents::Stage stage,
                         const agents::DecisionContext& ctx) override;
    std::string_view name() const noexcept override {
      return "population-threshold";
    }
    PairRule rule;
  };

  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  /// One matched session: the 2-cycle it runs on its shard's environment
  /// (leg 0: the buyer Alice locks P* token-a on chain A; leg 1: the
  /// seller Bob locks 1 token-b on chain B) and what the result roll-up
  /// needs.  Its slot in sessions_ never moves it: the machine's graph
  /// points at the legs and parties.
  struct SessionSwap {
    SessionSwap(proto::SwapEnv& env, std::uint64_t idx, std::uint64_t seed,
                double p_star, agents::Strategy& strategy);

    proto::SwapLeg legs[2];  ///< expiries set when the session starts
    proto::SwapParty parties[2];
    proto::SwapMachine swap;
    double t0 = 0.0;
    double fee[2] = {0.0, 0.0};  ///< bid per leg (escalates on eviction)
    /// Confirmation time of each stage's transaction (2 * leg + role; NaN
    /// until a block includes it).
    double confirmed[4] = {kNaN, kNaN, kNaN, kNaN};
    std::uint32_t bseq = 0;  ///< birth order of this session's buffered recs
    std::uint8_t buyer_type = 0;
    std::uint8_t seller_type = 0;
    bool taker_buys = false;  ///< impact direction, applied at initiation
    bool finalized = false;
  };

  // --- decision thresholds ----------------------------------------------
  /// Solves every type pair's rule on the pool (run(), before the epochs).
  void solve_pairs();

  // --- endogenous price (serial/barrier only) ----------------------------
  /// One GBM draw covering [price_time_, t]; no-op when t <= price_time_.
  void advance_price_to(double t);
  void apply_impact(double direction);

  // --- workload (serial phase) -------------------------------------------
  void schedule_next_arrival();
  void on_arrival();
  /// Arms the one global expiry event at the front order's expiry.
  void arm_expiry();
  /// Cancels every order whose patience ran out by now.
  void expire_orders();
  void spawn_session(const Match& match);

  // --- sessions (parallel phase, shard-confined) -------------------------
  /// The session with GLOBAL index idx, or nullptr when it was already
  /// retired -- every queued callback holds an index, so a late firing
  /// (watchdog of a never-initiated session, fee-market sweep) must
  /// degrade to a checked no-op instead of a dangling deque access.
  [[nodiscard]] SessionSwap* session(std::uint64_t idx) noexcept;
  void init_session(Shard& sh, std::uint64_t idx);
  /// A sealed block included landings [begin, end) of the shard: submit
  /// each to the shard's ledger and tell its swap.
  void land(Shard& sh, std::uint32_t begin, std::uint32_t end);
  void finalize(Shard& sh, std::uint64_t idx);
  /// The sink proper: checks the stage's inclusion deadline (giving the
  /// transaction up once it has passed), then buffers the intent during
  /// the parallel phase or submits it directly when called serially
  /// (re-bids after drops).
  void submit_intent(Shard& sh, std::uint64_t idx, int stage,
                     chain::TxPayload payload);

  // --- serial phase / barrier --------------------------------------------
  void submit_to_market(std::uint64_t idx, int stage, chain::TxPayload payload,
                        double fee, double deadline);
  /// Re-bid after an eviction (escalated fee) or give the transaction up.
  void handle_drop(std::uint64_t idx, int stage, chain::TxPayload payload,
                   DropReason reason);
  /// The epoch barrier: merges the shards' stamp-sorted buffers and folds
  /// them in stamp order, then compacts.  `e1` is the epoch boundary all queues were advanced to.
  void merge_window(double e1);
  /// Every compaction.interval finalizations: retire settled sessions from
  /// the deque front and sweep every shard ledger behind the watermark.
  void maybe_compact(double now);
  /// Epoch width: one (minimum) block interval, aligning the barriers with
  /// the fee markets' seal grid so every cross-session interaction -- block
  /// space contention, price impact, settlement -- is merged exactly once
  /// per block.  Also every queue's bucket width.
  [[nodiscard]] double epoch() const noexcept;
  /// Runs fn(0) .. fn(n-1), on the pool when there is one.
  void parallel(std::size_t n, const std::function<void(std::size_t)>& fn);

  PopulationConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint64_t trace_stride_ = 0;

  chain::EventQueue queue_;  ///< global: arrivals, order book, fee markets
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<sweep::ThreadPool> pool_;  ///< workers-1 helpers; null @ 1
  std::unique_ptr<FeeMarket> market_a_;
  std::unique_ptr<FeeMarket> market_b_;
  OrderBook book_;
  bool in_parallel_phase_ = false;

  math::Xoshiro256 arrival_rng_;
  math::Xoshiro256 price_rng_;
  double price_ = 0.0;
  double price_time_ = 0.0;
  double window_price_ = 0.0;  ///< epoch-frozen decision price
  double min_price_ = 0.0;
  double max_price_ = 0.0;

  std::vector<ThresholdStrategy> strategies_;  ///< by buyer * types + seller
  proto::SwapSetup swap_options_;  ///< every shard env's run options
  /// Live session records by global index in blocks: block k of the
  /// deque holds indices from (session_offset_ / kSessionBlock + k) *
  /// kSessionBlock on.  (std::deque's 512-byte nodes would hold a single
  /// SessionSwap each, doubling the memory of the live sessions.)
  static constexpr std::uint64_t kSessionBlock = 64;
  std::deque<std::array<std::optional<SessionSwap>, kSessionBlock>> sessions_;
  std::uint64_t session_offset_ = 0;  ///< sessions retired off the front
  std::uint64_t finalized_since_compact_ = 0;
  /// (expiry, order id) of every order that entered the book, in arrival
  /// order -- cancel_after is constant, so expiries never decrease.  One
  /// global event, armed at the front's expiry, cancels the orders still
  /// resting.
  std::deque<std::pair<double, std::uint64_t>> expiries_;
  bool expiry_armed_ = false;

  std::uint64_t merge_expired_ = 0;  ///< intents already dead at the merge
  PopulationResult result_;
  std::vector<double> latencies_;
  // Compensated accumulators: naive double sums drift at 10^6+ sessions
  // (satellite fix; test_compaction compares against long-double reference).
  math::NeumaierSum predicted_sr_sum_;
  math::NeumaierSum lockup_a_sum_;
  math::NeumaierSum lockup_b_sum_;
  double global_max_event_time_ = 0.0;
  bool ran_ = false;
};

}  // namespace swapgame::market
