// X12 -- multi-party cyclic swaps (Herlihy, cited in paper Section II-C).
//
// Scales the HTLC construction to N-party cycles on N simulated chains and
// measures what the 2-party analysis implies at scale:
//   * completion latency and total lock-up time grow linearly in N
//     (Herlihy's staircase: the leader's lock must survive the whole wave);
//   * a defection at ANY lock position aborts atomically (nobody loses);
//   * a skipped claim hurts exactly the skipper (the t4-miss generalized);
//   * the leader's sore-spot: it is paid FIRST and its own lock expires
//     LAST -- the optionality asymmetry the paper analyzes for 2 parties
//     compounds with cycle length.
#include <string>
#include <vector>

#include "agents/naive.hpp"
#include "bench_util.hpp"
#include "proto/multihop_protocol.hpp"
#include "sweep/sweep.hpp"

using namespace swapgame;

namespace {

proto::MultihopSetup make_cycle(std::size_t n) {
  proto::MultihopSetup setup;
  for (std::size_t i = 0; i < n; ++i) {
    setup.parties.push_back({"p" + std::to_string(i), 1.0, nullptr});
  }
  return setup;
}

}  // namespace

int main() {
  bench::Report report(
      "X12 -- N-party cyclic swaps on N chains (Herlihy construction)",
      "Latency scaling, lock-up exposure, per-position failure injection.");

  const proto::ConstantPricePath path(1.0);

  // --- Scaling: completion time and leader lock-up vs N. -------------------
  report.csv_begin("scaling", "parties,completion_hours,leader_lock_hours");
  bool linear = true;
  double prev_completion = 0.0;
  const std::vector<std::size_t> cycle_sizes = {2, 3, 4, 6, 8, 12};
  const auto scaling = sweep::parallel_map<proto::MultihopResult>(
      cycle_sizes.size(), [&path, &cycle_sizes](std::size_t i) {
        const proto::MultihopSetup setup = make_cycle(cycle_sizes[i]);
        return proto::run_multihop_swap(setup, path);
      });
  for (std::size_t i = 0; i < cycle_sizes.size(); ++i) {
    const std::size_t n = cycle_sizes[i];
    const proto::MultihopResult& r = scaling[i];
    if (r.outcome != proto::SwapOutcome::kSuccess) {
      report.claim("honest cycle committed", false);
      return 1;
    }
    // Leader lock-up: its chain-0 lock is claimed by the LAST claim.
    const double leader_lockup = r.completion_time;
    report.csv_row(bench::fmt("%zu,%.1f,%.1f", n, r.completion_time,
                              leader_lockup));
    if (n > 2 && r.completion_time <= prev_completion) linear = false;
    prev_completion = r.completion_time;
  }
  report.claim("completion time grows with cycle length", linear);

  // --- Failure injection at every lock position (n = 5). -------------------
  report.csv_begin("lock_defection", "defector_position,locks_deployed,"
                                     "legs_claimed,anyone_lost");
  bool lock_aborts_atomic = true;
  const auto lock_runs = sweep::parallel_map<proto::MultihopResult>(
      5, [&path](std::size_t pos) {
        proto::MultihopSetup setup = make_cycle(5);
        agents::DefectorStrategy defect(pos == 0 ? agents::Stage::kT1Initiate
                                                 : agents::Stage::kT2Lock);
        setup.parties[pos].strategy = &defect;
        return proto::run_multihop_swap(setup, path);
      });
  for (std::size_t pos = 0; pos < 5; ++pos) {
    const proto::MultihopResult& r = lock_runs[pos];
    bool anyone_lost = false;
    for (std::size_t i = 0; i < 5; ++i) {
      if (r.paid[i] > 1e-12 && r.received[i] < 1e-12) anyone_lost = true;
    }
    report.csv_row(bench::fmt("%zu,%d,%d,%d", pos, r.locks_deployed,
                              r.legs_claimed, anyone_lost ? 1 : 0));
    const proto::SwapOutcome aborted = pos == 0
                                           ? proto::SwapOutcome::kNotInitiated
                                           : proto::SwapOutcome::kBobDeclinedT2;
    if (r.outcome != aborted || anyone_lost || !r.conservation_ok) {
      lock_aborts_atomic = false;
    }
  }
  report.claim("lock-phase defection at any position aborts atomically",
               lock_aborts_atomic);

  // --- Claim-skip injection at every non-leader position. -------------------
  report.csv_begin("claim_skip", "skipper,legs_claimed,skipper_paid,"
                                 "skipper_received,others_lost");
  bool only_skipper_loses = true;
  const auto skip_runs = sweep::parallel_map<proto::MultihopResult>(
      4, [&path](std::size_t i) {
        const std::size_t pos = i + 1;
        proto::MultihopSetup setup = make_cycle(5);
        agents::DefectorStrategy skip(agents::Stage::kT4Claim);
        setup.parties[pos].strategy = &skip;
        return proto::run_multihop_swap(setup, path);
      });
  for (std::size_t pos = 1; pos < 5; ++pos) {
    const proto::MultihopResult& r = skip_runs[pos - 1];
    bool others_lost = false;
    for (std::size_t i = 0; i < 5; ++i) {
      if (i == pos) continue;
      if (r.paid[i] > 1e-12 && r.received[i] < 1e-12) others_lost = true;
    }
    report.csv_row(bench::fmt("%zu,%d,%.1f,%.1f,%d", pos, r.legs_claimed,
                              r.paid[pos], r.received[pos],
                              others_lost ? 1 : 0));
    if (others_lost || !r.conservation_ok) only_skipper_loses = false;
    // The skipper itself paid without being paid (except pos upstream of
    // the wave start, where its own lock may also have expired).
  }
  report.claim("a skipped claim never harms a third party",
               only_skipper_loses);
  report.note("the leader is paid first and locked longest: its exposure "
              "window equals the full wave, growing linearly in N");
  return report.exit_code();
}
