// DEX marketplace simulation: the paper's Section II-A pipeline -- a
// match-making order book in front of P2P HTLC settlement -- run as a
// population of heterogeneous traders in three volatility regimes.
//
// Each regime is one market::PopulationSim run: Poisson order flow into
// the order book, every match settled as an HTLC session on two shared
// ledgers with per-chain fee markets, rational threshold strategies on
// both sides.  Per regime it prints the session count per outcome, the
// population's completion rate among initiated swaps, the mean analytic
// SR predicted at initiation and the median settlement latency.
//
//   $ ./dex_marketplace [sessions]
#include <cstdio>
#include <cstdlib>

#include "market/population/population_sim.hpp"

namespace {

using namespace swapgame;

void run_regime(const char* label, double sigma, std::uint64_t sessions) {
  market::PopulationConfig config;
  config.sessions = sessions;
  config.gbm.sigma = sigma;
  config.seed = 2024;
  market::PopulationSim sim(config);
  const market::PopulationResult r = sim.run();
  const auto count = [](std::uint64_t n) {
    return static_cast<unsigned long long>(n);
  };
  std::printf("%-14s sessions %5llu  never initiated %4llu  aborted t2 %4llu  "
              "aborted t3 %4llu  completed %5llu  starved %4llu  "
              "atomicity lost %llu\n",
              label, count(r.sessions), count(r.never_initiated),
              count(r.aborted_t2), count(r.aborted_t3), count(r.completed),
              count(r.starved), count(r.atomicity_lost));
  std::printf("%-14s completion %.1f%%, predicted SR %.1f%%, p50 latency "
              "%.1f h\n",
              "", 100.0 * r.stats.completion_rate(),
              100.0 * r.stats.mean_predicted_sr, r.stats.latency_p50);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t sessions =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  std::printf("DEX marketplace: order book match-making + HTLC settlement\n");
  std::printf("(unit orders around P = 2.0 on shared, fee-priced chains; "
              "buyers play Alice)\n\n");
  run_regime("calm (5%)", 0.05, sessions);
  run_regime("base (10%)", 0.10, sessions);
  run_regime("volatile (14%)", 0.14, sessions);
  std::printf(
      "\nReading: 'starved' counts sessions whose pre-reveal transaction\n"
      "never landed before its timelock; 'completion' is the share of\n"
      "initiated sessions whose claims both confirmed; 'predicted SR' is\n"
      "the mean analytic success rate the paper's game assigns at each\n"
      "initiation; 'p50 latency' runs from initiation to the last claim.\n"
      "Completion and predicted SR are separate quantities: population\n"
      "sessions also fail on fee-market delay and decide on epoch-frozen\n"
      "prices, so completion can sit well below the prediction.\n");
  return 0;
}
