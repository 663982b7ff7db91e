// swapgame CLI: one-stop analyzer for an HTLC atomic swap.
//
//   $ ./swapgame_cli --p-star 2.0 --sigma 0.1 --mechanism collateral
//                    --deposit 0.5 --mc 2000
//
// Flags (all optional; defaults are Table III):
//   --p-star X       agreed exchange rate (default: negotiate via Nash)
//   --p0 X           current token-b price (default 2.0)
//   --mu X           drift per hour (default 0.002)
//   --sigma X        volatility per sqrt(hour) (default 0.1)
//   --alpha-a X      Alice's success premium (default 0.3)
//   --alpha-b X      Bob's success premium (default 0.3)
//   --r X            both agents' discount rate per hour (default 0.01)
//   --tau-a X        Chain_a confirmation hours (default 3)
//   --tau-b X        Chain_b confirmation hours (default 4)
//   --mechanism M    none | collateral | premium (default none)
//   --deposit X      Q or pr for the chosen mechanism (default 0)
//   --mc N           validate with N protocol-level Monte-Carlo swaps
//   --help
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "engine/scenario_batch.hpp"
#include "model/collateral_game.hpp"
#include "model/negotiation.hpp"
#include "model/premium_game.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace swapgame;

struct CliOptions {
  model::SwapParams params = model::SwapParams::table3_defaults();
  std::optional<double> p_star;
  sim::Mechanism mechanism = sim::Mechanism::kNone;
  double deposit = 0.0;
  std::size_t mc_samples = 0;
  bool help = false;
  std::string error;
};

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  const auto next_value = [&](int& i) -> std::optional<double> {
    if (i + 1 >= argc) return std::nullopt;
    return std::atof(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::optional<double> v;
    if (flag == "--help" || flag == "-h") {
      opts.help = true;
    } else if (flag == "--p-star") {
      if ((v = next_value(i))) opts.p_star = *v;
    } else if (flag == "--p0") {
      if ((v = next_value(i))) opts.params.p_t0 = *v;
    } else if (flag == "--mu") {
      if ((v = next_value(i))) opts.params.gbm.mu = *v;
    } else if (flag == "--sigma") {
      if ((v = next_value(i))) opts.params.gbm.sigma = *v;
    } else if (flag == "--alpha-a") {
      if ((v = next_value(i))) opts.params.alice.alpha = *v;
    } else if (flag == "--alpha-b") {
      if ((v = next_value(i))) opts.params.bob.alpha = *v;
    } else if (flag == "--r") {
      if ((v = next_value(i))) {
        opts.params.alice.r = *v;
        opts.params.bob.r = *v;
      }
    } else if (flag == "--tau-a") {
      if ((v = next_value(i))) opts.params.tau_a = *v;
    } else if (flag == "--tau-b") {
      if ((v = next_value(i))) opts.params.tau_b = *v;
    } else if (flag == "--deposit") {
      if ((v = next_value(i))) opts.deposit = *v;
    } else if (flag == "--mc") {
      if ((v = next_value(i))) opts.mc_samples = static_cast<std::size_t>(*v);
    } else if (flag == "--mechanism") {
      if (i + 1 >= argc) {
        opts.error = "--mechanism needs a value";
        break;
      }
      const std::string m = argv[++i];
      if (m == "none") {
        opts.mechanism = sim::Mechanism::kNone;
      } else if (m == "collateral") {
        opts.mechanism = sim::Mechanism::kCollateral;
      } else if (m == "premium") {
        opts.mechanism = sim::Mechanism::kPremium;
      } else {
        opts.error = "unknown mechanism: " + m;
        break;
      }
    } else {
      opts.error = "unknown flag: " + flag;
      break;
    }
  }
  return opts;
}

void print_usage() {
  std::printf(
      "usage: swapgame_cli [--p-star X] [--p0 X] [--mu X] [--sigma X]\n"
      "                    [--alpha-a X] [--alpha-b X] [--r X]\n"
      "                    [--tau-a X] [--tau-b X]\n"
      "                    [--mechanism none|collateral|premium]\n"
      "                    [--deposit X] [--mc N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = parse(argc, argv);
  if (opts.help) {
    print_usage();
    return 0;
  }
  if (!opts.error.empty()) {
    std::fprintf(stderr, "error: %s\n", opts.error.c_str());
    print_usage();
    return 2;
  }
  try {
    opts.params.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid parameters: %s\n", e.what());
    return 2;
  }

  // Rate: given, or negotiated.
  double p_star;
  if (opts.p_star) {
    p_star = *opts.p_star;
  } else {
    const model::NegotiationResult n = model::negotiate_rate(
        opts.params, model::BargainingRule::kNashBargaining);
    if (!n.agreed) {
      std::printf("No exchange rate is acceptable to both agents in this\n"
                  "market (the swap never starts).  Mutual set: %s\n",
                  n.mutual.to_string().c_str());
      return 1;
    }
    p_star = n.p_star;
    std::printf("negotiated P* = %.4f (Nash bargaining)\n", p_star);
  }

  std::printf("\n=== swap analysis: %s, deposit %.3f ===\n",
              to_string(opts.mechanism), opts.deposit);

  double analytic_sr = 0.0;
  bool initiated = false;
  switch (opts.mechanism) {
    case sim::Mechanism::kNone: {
      const model::BasicGame game(opts.params, p_star);
      analytic_sr = game.success_rate();
      initiated = game.alice_decision_t1() == model::Action::kCont;
      std::printf("alice reveal cutoff (t3):  %.4f\n", game.alice_t3_cutoff());
      if (const auto band = game.bob_t2_band()) {
        std::printf("bob lock band (t2):        (%.4f, %.4f]\n", band->lo,
                    band->hi);
      } else {
        std::printf("bob lock band (t2):        empty (swap always fails)\n");
      }
      break;
    }
    case sim::Mechanism::kCollateral: {
      const model::CollateralGame game(opts.params, p_star, opts.deposit);
      analytic_sr = game.success_rate();
      initiated = game.engaged();
      std::printf("alice reveal cutoff (t3):  %.4f\n", game.alice_t3_cutoff());
      std::printf("bob lock region (t2):      %s\n",
                  game.bob_t2_region().to_string().c_str());
      break;
    }
    case sim::Mechanism::kPremium: {
      const model::PremiumGame game(opts.params, p_star, opts.deposit);
      analytic_sr = game.success_rate();
      initiated = game.alice_decision_t1() == model::Action::kCont;
      std::printf("alice reveal cutoff (t3):  %.4f\n", game.alice_t3_cutoff());
      std::printf("bob lock region (t2):      %s\n",
                  game.bob_t2_region().to_string().c_str());
      break;
    }
  }
  std::printf("swap initiated at t1:      %s\n", initiated ? "yes" : "no");
  std::printf("analytic success rate:     %.2f%%\n", 100.0 * analytic_sr);

  if (opts.mc_samples > 0 && initiated) {
    const std::vector<sim::ScenarioPoint> points = {
        {"cli", opts.params, p_star, opts.mechanism, opts.deposit}};
    sim::McConfig cfg;
    cfg.samples = opts.mc_samples;
    cfg.seed = 12345;
    const auto results = engine::run_scenarios(points, cfg);
    std::printf("protocol-MC success rate:  %.2f%% (95%% CI %.2f-%.2f, n=%zu)\n",
                100.0 * results[0].protocol_sr,
                100.0 * results[0].protocol_sr_ci_lo,
                100.0 * results[0].protocol_sr_ci_hi, opts.mc_samples);
    std::printf("mean realized utilities:   alice %.4f, bob %.4f\n",
                results[0].alice_utility, results[0].bob_utility);
  }
  return 0;
}
