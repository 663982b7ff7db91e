#include "negotiation.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "solver_cache.hpp"

namespace swapgame::model {

const char* to_string(BargainingRule rule) noexcept {
  switch (rule) {
    case BargainingRule::kNashBargaining:
      return "nash-bargaining";
    case BargainingRule::kMaxSuccessRate:
      return "max-success-rate";
    case BargainingRule::kMidpoint:
      return "midpoint";
  }
  return "unknown";
}

NegotiationResult negotiate_rate(const SwapParams& params, BargainingRule rule,
                                 double scan_lo, double scan_hi,
                                 int scan_samples, int grid) {
  params.validate();
  if (grid < 2) {
    throw std::invalid_argument("negotiate_rate: grid must be >= 2");
  }
  // Both acceptability scans and the selection grid query games over the
  // same P* range: a single warm-chained, memoizing sweeper solves each
  // rate once instead of cold three times.
  BasicGameSweeper sweeper(params);
  NegotiationResult result;
  result.alice_acceptable = positive_set(
      [&](double p) {
        const auto g = sweeper.at(p);
        return g->alice_t1_cont() - g->alice_t1_stop();
      },
      scan_lo, scan_hi, scan_samples);
  result.bob_acceptable = positive_set(
      [&](double p) {
        const auto g = sweeper.at(p);
        return g->bob_t1_cont() - g->bob_t1_stop();
      },
      scan_lo, scan_hi, scan_samples);
  result.mutual = result.alice_acceptable.intersect(result.bob_acceptable);
  if (result.mutual.empty()) return result;  // no agreement possible

  // Score candidate rates over the mutual set.
  double best_score = -std::numeric_limits<double>::infinity();
  double best_rate = 0.0;
  for (const math::Interval& piece : result.mutual.intervals()) {
    for (int i = 0; i <= grid; ++i) {
      const double p_star =
          piece.lo + (piece.hi - piece.lo) * static_cast<double>(i) / grid;
      if (!(p_star > 0.0)) continue;
      const auto game = sweeper.at(p_star);
      const double sa = game->alice_t1_cont() - game->alice_t1_stop();
      const double sb = game->bob_t1_cont() - game->bob_t1_stop();
      if (sa <= 0.0 || sb <= 0.0) continue;  // boundary numeric noise
      double score = 0.0;
      switch (rule) {
        case BargainingRule::kNashBargaining:
          score = sa * sb;
          break;
        case BargainingRule::kMaxSuccessRate:
          score = game->success_rate();
          break;
        case BargainingRule::kMidpoint: {
          const double mid = 0.5 * (piece.lo + piece.hi);
          score = -std::abs(p_star - mid);
          break;
        }
      }
      if (score > best_score) {
        best_score = score;
        best_rate = p_star;
      }
    }
  }
  if (!(best_score > -std::numeric_limits<double>::infinity())) return result;

  const auto chosen = sweeper.at(best_rate);
  result.agreed = true;
  result.p_star = best_rate;
  result.alice_surplus = chosen->alice_t1_cont() - chosen->alice_t1_stop();
  result.bob_surplus = chosen->bob_t1_cont() - chosen->bob_t1_stop();
  result.success_rate = chosen->success_rate();
  return result;
}

}  // namespace swapgame::model
