// X11 -- protocol families: HTLC vs witness commitment (AC^3TW).
//
// The paper's Section II-C surveys commitment-based alternatives (Zakhary
// et al.) and Section V asks "which protocol agents would select and why".
// This bench answers with numbers, analytically and end-to-end:
//   * the commitment protocol removes ALL post-lock optionality, so its
//     success rate strictly beats the HTLC's at the same rate;
//   * Bob always prefers the witness (it sheds Alice's option);
//   * Alice's preference CROSSES OVER in P*: at cheap rates her option is
//     nearly worthless (she would rarely walk) and the witness's higher
//     completion helps her too -- the witness Pareto-dominates; at richer
//     rates her option is valuable and she prefers the HTLC.  Protocol
//     selection is a bargaining problem above the crossover.
#include <cmath>
#include <vector>

#include "agents/rational.hpp"
#include "bench_util.hpp"
#include "model/basic_game.hpp"
#include "model/commitment_game.hpp"
#include "proto/swap_machine.hpp"
#include "proto/witness_protocol.hpp"
#include "sim/mc_runner.hpp"
#include "sim/path_simulator.hpp"
#include "sweep/sweep.hpp"

using namespace swapgame;

namespace {

/// Protocol-level MC for the witness protocol (the generic harness drives
/// the HTLC family; this one runs run_witness_swap per sampled path).
struct WitnessMcResult {
  double sr = 0.0;
  double alice_utility = 0.0;
  double bob_utility = 0.0;
};

WitnessMcResult witness_mc(const model::SwapParams& params, double p_star,
                           std::size_t samples, std::uint64_t seed) {
  const std::vector<chain::Hours> epochs =
      sim::schedule_epochs(model::idealized_schedule(params, 0.0));
  math::Xoshiro256 rng(seed);
  agents::CommitmentRationalStrategy alice(agents::Role::kAlice, params,
                                           p_star);
  agents::CommitmentRationalStrategy bob(agents::Role::kBob, params, p_star);
  proto::SwapSetup setup;
  setup.params = params;
  setup.p_star = p_star;
  math::BinomialCounter success;
  math::RunningStats ua, ub;
  proto::SteppedPricePath path;
  proto::DirectRun workspace;
  for (std::size_t i = 0; i < samples; ++i) {
    sim::sample_epoch_path(params, epochs, rng, path);
    setup.secret_seed = seed ^ (i * 0x9E3779B9ULL + 7);
    const proto::SwapResult r =
        proto::run_witness_swap(setup, alice, bob, path, workspace);
    success.add(r.success);
    ua.add(r.alice.realized_utility);
    ub.add(r.bob.realized_utility);
  }
  return {success.proportion(), ua.mean(), ub.mean()};
}

}  // namespace

int main() {
  bench::Report report(
      "X11 -- protocol families: HTLC vs witness commitment (AC^3TW)",
      "Same market, same rate; completion AND utilities compared.");

  const model::SwapParams p = model::SwapParams::table3_defaults();

  // --- Analytic comparison across rates. ---------------------------------------
  report.csv_begin("analytic",
                   "p_star,SR_htlc,SR_commit,UA_htlc,UA_commit,UB_htlc,"
                   "UB_commit");
  bool commit_sr_dominates = true;
  bool alice_prefers_htlc_when_rich = true;   // at P* >= 2.0
  bool alice_prefers_commit_when_cheap = true;  // at P* <= 1.9
  bool bob_prefers_commit = true;
  struct FamilyRow {
    double sr_h = 0.0, sr_c = 0.0;
    double ua_h = 0.0, ua_c = 0.0;
    double ub_h = 0.0, ub_c = 0.0;
  };
  const std::vector<double> p_stars = {1.7, 1.9, 2.0, 2.1, 2.3};
  const auto rows = sweep::parallel_map<FamilyRow>(
      p_stars.size(), [&p, &p_stars](std::size_t i) {
        const model::BasicGame htlc(p, p_stars[i]);
        const model::CommitmentGame commit(p, p_stars[i]);
        return FamilyRow{htlc.success_rate(),  commit.success_rate(),
                         htlc.alice_t1_cont(), commit.alice_t1_cont(),
                         htlc.bob_t1_cont(),   commit.bob_t1_cont()};
      });
  for (std::size_t i = 0; i < p_stars.size(); ++i) {
    const double p_star = p_stars[i];
    const FamilyRow& row = rows[i];
    report.csv_row(bench::fmt("%.1f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f", p_star,
                              row.sr_h, row.sr_c, row.ua_h, row.ua_c,
                              row.ub_h, row.ub_c));
    if (row.sr_c < row.sr_h - 1e-9) {
      commit_sr_dominates = false;
    }
    if (p_star >= 2.0 - 1e-9 && row.ua_c > row.ua_h + 1e-9) {
      alice_prefers_htlc_when_rich = false;
    }
    if (p_star <= 1.9 + 1e-9 && row.ua_c < row.ua_h - 1e-9) {
      alice_prefers_commit_when_cheap = false;
    }
    if (row.ub_c < row.ub_h - 1e-9) {
      bob_prefers_commit = false;
    }
  }
  report.claim("commitment SR >= HTLC SR at every rate", commit_sr_dominates);
  report.claim("at rich rates Alice prefers the HTLC (her option has value)",
               alice_prefers_htlc_when_rich);
  report.claim("at cheap rates the witness Pareto-dominates (crossover)",
               alice_prefers_commit_when_cheap);
  report.claim("Bob prefers the witness at every rate", bob_prefers_commit);

  // --- End-to-end protocol MC. ---------------------------------------------------
  const std::size_t samples = 3000;
  const WitnessMcResult witness = witness_mc(p, 2.0, samples, 606);
  sim::McRunSpec htlc_spec;
  htlc_spec.evaluator = sim::McEvaluator::kProtocol;
  htlc_spec.params = p;
  htlc_spec.p_star = 2.0;
  htlc_spec.config.samples = samples;
  htlc_spec.config.seed = 606;
  const sim::McEstimate htlc_mc = sim::McRunner::run(htlc_spec).estimate;
  report.csv_begin("protocol_mc", "protocol,SR,U_alice,U_bob");
  report.csv_row(bench::fmt("htlc,%.4f,%.4f,%.4f",
                            htlc_mc.conditional_success_rate(),
                            htlc_mc.alice_utility.mean(),
                            htlc_mc.bob_utility.mean()));
  report.csv_row(bench::fmt("witness,%.4f,%.4f,%.4f", witness.sr,
                            witness.alice_utility, witness.bob_utility));
  report.claim("end-to-end: witness completes more swaps",
               witness.sr > htlc_mc.conditional_success_rate());
  report.claim(
      "end-to-end: witness SR matches analytic (2pp)",
      std::abs(witness.sr - model::CommitmentGame(p, 2.0).success_rate()) <
          0.02);
  report.note("the trusted witness is the AC^3TW trust substitution; "
              "AC^3WN replaces it with a witness blockchain (out of scope)");
  return report.exit_code();
}
