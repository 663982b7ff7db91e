// evaluate_cell: the single dispatch point from a canonical RunSpec to the
// model/sim layers.  Each branch is a pure function of the spec (tracing
// goes to a LOCAL collector whose JSONL lands inside the RunResult, so a
// cached cell replays its trace byte-for-byte), and every numeric detail
// mirrors the historical bench code it replaced -- the migrated benches
// must stay byte-identical, warm or cold.
#include <cmath>
#include <memory>
#include <string>

#include "agents/strategy.hpp"
#include "market/population/population_sim.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/premium_game.hpp"
#include "model/sensitivity.hpp"
#include "model/solver_cache.hpp"
#include "obs/trace.hpp"
#include "proto/swap_machine.hpp"
#include "proto/swap_protocol.hpp"
#include "run_spec.hpp"
#include "sim/mc_detail.hpp"
#include "sim/mc_runner.hpp"

namespace swapgame::engine {

namespace {

/// Scrubs execution-context fields the canonical string excludes: a cell
/// always evaluates serially (the engine parallelizes across cells) and
/// never writes to caller-owned sinks (its trace is captured locally).
sim::McConfig cell_config(const sim::McConfig& config) {
  sim::McConfig out = config;
  out.threads = 1;
  out.traces = nullptr;
  out.metrics = nullptr;
  return out;
}

RunResult evaluate_analytic_sr(const RunSpec& spec) {
  RunResult result;
  const model::SwapParams& params = spec.mc.params;
  if (spec.mc.collateral > 0.0) {
    const model::CollateralGame game(params, spec.mc.p_star,
                                     spec.mc.collateral);
    result.set("sr", game.success_rate());
    result.set("initiated", game.engaged() ? 1.0 : 0.0);
  } else if (spec.mc.premium > 0.0) {
    const model::PremiumGame game(params, spec.mc.p_star, spec.mc.premium);
    result.set("sr", game.success_rate());
    result.set("initiated",
               game.alice_decision_t1() == model::Action::kCont ? 1.0 : 0.0);
  } else {
    const model::BasicGame game(params, spec.mc.p_star);
    result.set("sr", game.success_rate());
    result.set("initiated",
               game.alice_decision_t1() == model::Action::kCont ? 1.0 : 0.0);
    result.set("alice_t1_cont", game.alice_t1_cont());
    result.set("bob_t1_cont", game.bob_t1_cont());
  }
  return result;
}

RunResult evaluate_sr_grid(const RunSpec& spec) {
  RunResult result;
  const model::SwapParams& params = spec.mc.params;
  model::FeasibleBand band;
  if (std::isnan(spec.grid_lo) || std::isnan(spec.grid_hi)) {
    band = model::cached_feasible_band(params);
  } else {
    band.viable = true;
    band.lo = spec.grid_lo;
    band.hi = spec.grid_hi;
  }
  result.set("viable", band.viable ? 1.0 : 0.0);
  result.set("band_lo", band.lo);
  result.set("band_hi", band.hi);
  if (!band.viable) return result;

  model::BasicGameSweeper sweeper(params);
  for (int i = 0; i <= spec.grid_count; ++i) {
    // Matches the historical int-operand expressions bitwise:
    // lo + (hi-lo)*i/denom and lo + (hi-lo)*(i+offset)/denom both promote
    // their ints exactly as written here.
    const double p = band.lo + (band.hi - band.lo) *
                                   (static_cast<double>(i) + spec.grid_offset) /
                                   static_cast<double>(spec.grid_denom);
    result.set("p:" + std::to_string(i), p);
    result.set("sr:" + std::to_string(i), sweeper.at(p)->success_rate());
  }
  return result;
}

RunResult evaluate_sensitivity(const RunSpec& spec) {
  RunResult result;
  const model::SensitivityReport report =
      model::success_rate_sensitivities(spec.mc.params, spec.mc.p_star);
  result.set("sr", report.success_rate);
  for (const model::ParameterSensitivity& s : report.parameters) {
    result.set("value:" + s.name, s.value);
    result.set("deriv:" + s.name, s.derivative);
    result.set("elast:" + s.name, s.elasticity);
  }
  return result;
}

RunResult evaluate_jitter_cell(const RunSpec& spec) {
  // The X9 grid cell: honest runs on a constant price path with
  // CI-targeted stopping on the completion rate.  spec.mc.latency_seed is
  // the per-run seed STRIDE (run k uses latency_seed = k * stride);
  // config.min_samples/samples are the min/max run budget and
  // target_half_width (0 = never stop early) the Wilson stop rule at
  // config.ci_confidence.
  RunResult result;
  const sim::McConfig config = cell_config(spec.mc.config);
  const sim::StrategyFactory factory = spec.mc.make_strategy();
  const std::unique_ptr<agents::Strategy> alice =
      factory(agents::Role::kAlice, 0);
  const std::unique_ptr<agents::Strategy> bob = factory(agents::Role::kBob, 0);
  const proto::ConstantPricePath path(spec.mc.p_star);
  proto::SwapSetup setup = spec.mc.to_setup();

  constexpr std::uint64_t kBatch = 50;
  const std::uint64_t max_runs = config.samples;
  const std::uint64_t min_runs = config.min_samples;
  math::BinomialCounter completed;
  std::uint64_t runs = 0, success = 0, benign = 0, alice_lost = 0,
                bob_lost = 0;
  proto::DirectRun workspace;  // reused by every run of the cell
  for (std::uint64_t seed = 1; seed <= max_runs; ++seed) {
    setup.latency_seed = seed * spec.mc.latency_seed;
    const proto::SwapResult r =
        proto::run_swap(setup, *alice, *bob, path, workspace);
    ++runs;
    completed.add(r.outcome == proto::SwapOutcome::kSuccess);
    switch (r.outcome) {
      case proto::SwapOutcome::kSuccess:
        ++success;
        break;
      case proto::SwapOutcome::kAliceLostAtomicity:
        ++alice_lost;
        break;
      case proto::SwapOutcome::kBobLostAtomicity:
        ++bob_lost;
        break;
      default:
        ++benign;
        break;
    }
    if (config.target_half_width > 0 && runs >= min_runs &&
        runs % kBatch == 0) {
      const auto ci = completed.wilson_interval(config.ci_confidence);
      if (0.5 * (ci.hi - ci.lo) <= config.target_half_width) break;
    }
  }
  result.samples = runs;
  result.set("runs", static_cast<double>(runs));
  result.set("success", static_cast<double>(success));
  result.set("benign", static_cast<double>(benign));
  result.set("alice_lost", static_cast<double>(alice_lost));
  result.set("bob_lost", static_cast<double>(bob_lost));
  return result;
}

RunResult evaluate_scenario(const RunSpec& spec) {
  RunResult result;
  sim::ScenarioPoint point;
  point.label = spec.label;
  point.params = spec.mc.params;
  point.p_star = spec.mc.p_star;
  point.mechanism = spec.mechanism;
  point.deposit = spec.deposit;
  point.faults = spec.mc.faults;
  const sim::ScenarioResult r =
      sim::detail::scenario_cell(point, cell_config(spec.mc.config));
  result.samples = r.samples;
  result.set("analytic_sr", r.analytic_sr);
  result.set("protocol_sr", r.protocol_sr);
  result.set("ci_lo", r.protocol_sr_ci_lo);
  result.set("ci_hi", r.protocol_sr_ci_hi);
  result.set("alice_utility", r.alice_utility);
  result.set("bob_utility", r.bob_utility);
  result.set("initiated", r.initiated ? 1.0 : 0.0);
  result.set("conservation_failures",
             static_cast<double>(r.conservation_failures));
  result.set("invariant_failures", static_cast<double>(r.invariant_failures));
  return result;
}

RunResult evaluate_mc(const RunSpec& spec) {
  RunResult result;
  sim::McRunSpec mc = spec.mc;
  mc.config = cell_config(mc.config);
  obs::TraceCollector collector;
  if (mc.config.trace_stride > 0) mc.config.traces = &collector;
  const sim::McRunResult r = sim::McRunner::run(mc);
  result.samples = r.samples;
  result.rounds = r.rounds;
  result.set("sr", r.sr);
  result.set("sr_cond", r.estimate.conditional_success_rate());
  result.set("half_width", r.half_width);
  result.set("success_successes",
             static_cast<double>(r.estimate.success.successes()));
  result.set("success_trials",
             static_cast<double>(r.estimate.success.trials()));
  result.set("initiated_successes",
             static_cast<double>(r.estimate.initiated.successes()));
  result.set("initiated_trials",
             static_cast<double>(r.estimate.initiated.trials()));
  result.set("alice_mean", r.estimate.alice_utility.mean());
  result.set("alice_hw", r.estimate.alice_utility.ci_half_width());
  result.set("bob_mean", r.estimate.bob_utility.mean());
  result.set("bob_hw", r.estimate.bob_utility.ci_half_width());
  result.set("conservation_failures",
             static_cast<double>(r.estimate.conservation_failures));
  result.set("invariant_failures",
             static_cast<double>(r.estimate.invariant_failures));
  result.set("dropped_txs", static_cast<double>(r.estimate.dropped_txs));
  result.set("rebroadcasts", static_cast<double>(r.estimate.rebroadcasts));
  if (collector.size() > 0) result.trace = collector.jsonl();
  return result;
}

RunResult evaluate_market_sim(const RunSpec& spec) {
  // A population run is single-threaded on its event queue by design, so
  // the cell needs no config scrubbing; sinks stay detached (a cached cell
  // must equal a fresh one).  spec.mc.config.trace_stride > 0 opts the
  // cell into a session-strided trace stored in the result.
  RunResult result;
  market::PopulationSim sim(spec.population);
  obs::TraceRecorder recorder;
  if (spec.mc.config.trace_stride > 0) {
    sim.set_trace(&recorder,
                  static_cast<std::uint64_t>(spec.mc.config.trace_stride));
  }
  const market::PopulationResult r = sim.run();
  result.samples = r.sessions;
  result.set("arrivals", static_cast<double>(r.arrivals));
  result.set("orders_cancelled", static_cast<double>(r.orders_cancelled));
  result.set("sessions", static_cast<double>(r.sessions));
  result.set("never_initiated", static_cast<double>(r.never_initiated));
  result.set("aborted_t2", static_cast<double>(r.aborted_t2));
  result.set("aborted_t3", static_cast<double>(r.aborted_t3));
  result.set("completed", static_cast<double>(r.completed));
  result.set("starved", static_cast<double>(r.starved));
  result.set("atomicity_lost", static_cast<double>(r.atomicity_lost));
  result.set("initiated", static_cast<double>(r.stats.initiated));
  result.set("completion_rate", r.stats.completion_rate());
  result.set("mean_predicted_sr", r.stats.mean_predicted_sr);
  result.set("latency_p50", r.stats.latency_p50);
  result.set("latency_p90", r.stats.latency_p90);
  result.set("latency_p99", r.stats.latency_p99);
  result.set("lockup_token_a_hours", r.stats.lockup_token_a_hours);
  result.set("lockup_token_b_hours", r.stats.lockup_token_b_hours);
  result.set("final_price", r.final_price);
  result.set("min_price", r.min_price);
  result.set("max_price", r.max_price);
  result.set("blocks_sealed", static_cast<double>(r.blocks_sealed));
  result.set("txs_included", static_cast<double>(r.txs_included));
  result.set("txs_evicted", static_cast<double>(r.txs_evicted));
  result.set("txs_expired", static_cast<double>(r.txs_expired));
  result.set("rebids", static_cast<double>(r.rebids));
  result.set("fees_paid", r.fees_paid);
  result.set("threshold_games", static_cast<double>(r.threshold_games));
  result.set("t1_evaluations", static_cast<double>(r.t1_evaluations));
  result.set("compactions", static_cast<double>(r.compactions));
  result.set("sessions_retired", static_cast<double>(r.sessions_retired));
  result.set("accounts_retired", static_cast<double>(r.accounts_retired));
  result.set("txs_retired", static_cast<double>(r.txs_retired));
  result.set("htlcs_retired", static_cast<double>(r.htlcs_retired));
  result.set("log_truncated", static_cast<double>(r.log_truncated));
  result.set("peak_live_sessions", static_cast<double>(r.peak_live_sessions));
  result.set("conserved", r.conserved ? 1.0 : 0.0);
  result.set("end_time", r.end_time);
  if (!recorder.empty()) {
    obs::TraceCollector collector;
    collector.add(0, recorder);
    result.trace = collector.jsonl();
  }
  return result;
}

}  // namespace

RunResult evaluate_cell(const RunSpec& spec) {
  switch (spec.kind) {
    case CellKind::kAnalyticSr:
      return evaluate_analytic_sr(spec);
    case CellKind::kSrGrid:
      return evaluate_sr_grid(spec);
    case CellKind::kSensitivity:
      return evaluate_sensitivity(spec);
    case CellKind::kJitterCell:
      return evaluate_jitter_cell(spec);
    case CellKind::kScenario:
      return evaluate_scenario(spec);
    case CellKind::kMc:
      return evaluate_mc(spec);
    case CellKind::kMarketSim:
      return evaluate_market_sim(spec);
  }
  RunResult incomplete;
  incomplete.complete = false;
  return incomplete;
}

}  // namespace swapgame::engine
