#include "monte_carlo.hpp"

#include <limits>
#include <vector>

#include "agents/naive.hpp"
#include "agents/rational.hpp"
#include "estimators.hpp"
#include "mc_detail.hpp"
#include "mc_driver.hpp"
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "obs/trace.hpp"
#include "path_simulator.hpp"
#include "proto/swap_machine.hpp"

namespace swapgame::sim {

double McEstimate::conditional_success_rate() const noexcept {
  // "No initiated sample" leaves the conditional undefined -- signal that
  // with NaN rather than a fake 0 (which reads as "initiated, always lost").
  return initiated.successes() == 0
             ? std::numeric_limits<double>::quiet_NaN()
             : static_cast<double>(success.successes()) /
                   static_cast<double>(initiated.successes());
}

void McEstimate::merge(const McEstimate& other) {
  success.merge(other.success);
  initiated.merge(other.initiated);
  alice_utility.merge(other.alice_utility);
  bob_utility.merge(other.bob_utility);
  for (const auto& [outcome, count] : other.outcomes) {
    outcomes[outcome] += count;
  }
  conservation_failures += other.conservation_failures;
  invariant_failures += other.invariant_failures;
  dropped_txs += other.dropped_txs;
  rebroadcasts += other.rebroadcasts;
}

StrategyFactory rational_factory(const model::SwapParams& params,
                                 double p_star, double collateral) {
  // Solve the backward induction once per factory, not once per sample:
  // thresholds depend only on (params, p_star, collateral), so every
  // strategy instance can share one immutable game.  Pre-touch the lazy t1
  // quantities so worker threads start from a fully materialized game.
  if (collateral > 0.0) {
    auto game = std::make_shared<const model::CollateralGame>(params, p_star,
                                                              collateral);
    (void)game->engaged();
    return [game](agents::Role role, std::uint64_t) {
      return std::make_unique<agents::CollateralRationalStrategy>(role, game);
    };
  }
  auto game = std::make_shared<const model::BasicGame>(params, p_star);
  (void)game->alice_decision_t1();
  return [game](agents::Role role, std::uint64_t) {
    return std::make_unique<agents::RationalStrategy>(role, game);
  };
}

StrategyFactory premium_rational_factory(const model::SwapParams& params,
                                          double p_star, double premium) {
  auto game =
      std::make_shared<const model::PremiumGame>(params, p_star, premium);
  (void)game->alice_decision_t1();
  return [game](agents::Role role, std::uint64_t) {
    return std::make_unique<agents::PremiumRationalStrategy>(role, game);
  };
}

StrategyFactory honest_factory() {
  return [](agents::Role, std::uint64_t) {
    return std::make_unique<agents::HonestStrategy>();
  };
}

McEstimate detail::protocol_mc(const proto::SwapSetup& setup,
                               const StrategyFactory& alice,
                               const StrategyFactory& bob,
                               const McConfig& config) {
  setup.params.validate();
  const std::vector<chain::Hours> epochs =
      schedule_epochs(model::idealized_schedule(setup.params, 0.0));

  // Adaptive stopping gates on the Wilson half-width of the UNCONDITIONAL
  // success proportion (the quantity every bench reports).  The predicate
  // sees only the merged estimate after whole rounds, so the stop decision
  // -- and hence the result -- is the same at any thread count.
  const auto should_stop = [&config](const McEstimate& m, std::size_t done) {
    if (config.target_half_width <= 0.0) return false;
    if (done < config.min_samples || m.success.trials() < 2) return false;
    const math::BinomialCounter::Interval ci =
        m.success.wilson_interval(config.ci_confidence);
    return 0.5 * (ci.hi - ci.lo) <= config.target_half_width;
  };
  const std::size_t round_chunks =
      config.target_half_width > 0.0 ? detail::kProtocolRoundChunks : 0;

  McEstimate merged;
  detail::adaptive_parallel_mc(
      config.samples, detail::kProtocolMcChunk, config.threads, round_chunks,
      math::Xoshiro256(config.seed), merged,
      [&](std::size_t first, std::size_t count, math::Xoshiro256& rng,
          McEstimate& out) {
        // Per-CHUNK workspace: one SwapSetup copy, one price path and one
        // protocol run (queue, ledgers, auditors) per chunk, each reset per
        // sample; only the per-sample seeds and the trace pointer mutate
        // inside the loop.
        proto::SwapSetup sample_setup = setup;
        sample_setup.metrics = config.metrics;
        proto::SteppedPricePath path;
        proto::DirectRun workspace;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t index = first + i;
          sample_epoch_path(setup.params, epochs, rng, path);
          const std::unique_ptr<agents::Strategy> a =
              alice(agents::Role::kAlice, index);
          const std::unique_ptr<agents::Strategy> b =
              bob(agents::Role::kBob, index);
          sample_setup.secret_seed = config.seed ^ (index * 0x9E3779B9ULL + 1);
          // Per-sample fault stream, keyed by the sample index (never by
          // worker identity) so faulted runs stay bit-identical across
          // thread counts, like the price-path streams.
          sample_setup.faults.seed =
              setup.faults.seed ^ (index * 0xD1B54A32D192ED03ULL + 0x2545F491ULL);
          // Trace-sampled runs get a per-sample recorder; the collector
          // keys the serialized stream by sample index, so the exported
          // JSONL is independent of the worker that ran the sample.
          obs::TraceRecorder recorder;
          const bool traced = config.traces != nullptr &&
                              config.trace_stride != 0 &&
                              index % config.trace_stride == 0;
          sample_setup.trace = traced ? &recorder : nullptr;
          const proto::SwapResult result =
              proto::run_swap(sample_setup, *a, *b, path, workspace);
          if (traced) config.traces->add(index, recorder);

          const bool started =
              result.outcome != proto::SwapOutcome::kNotInitiated;
          out.initiated.add(started);
          out.success.add(result.success);
          out.outcomes[result.outcome] += 1;
          if (started) {
            out.alice_utility.add(result.alice.realized_utility);
            out.bob_utility.add(result.bob.realized_utility);
          }
          if (!result.conservation_ok) ++out.conservation_failures;
          if (!result.invariants_ok) ++out.invariant_failures;
          out.dropped_txs += static_cast<std::uint64_t>(result.dropped_txs);
          out.rebroadcasts += static_cast<std::uint64_t>(result.rebroadcasts);
        }
      },
      should_stop);
  return merged;
}

}  // namespace swapgame::sim
