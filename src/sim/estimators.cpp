#include "estimators.hpp"

#include <cmath>
#include <vector>

#include "math/gbm.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "mc_detail.hpp"
#include "mc_driver.hpp"
#include "model/collateral_game.hpp"

namespace swapgame::sim {

double VrEstimate::success_rate() const noexcept {
  if (mc.initiated.successes() == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return control_variate ? acc.adjusted_mean(control_mean) : acc.mean_y();
}

double VrEstimate::half_width() const {
  return control_variate ? acc.adjusted_half_width(confidence)
                         : acc.plain_half_width(confidence);
}

namespace {

/// The swap payoff reduced to z-space: with lp2 = la_mean + la_sd * z2 the
/// t2 region becomes intervals on z2 directly, and Alice's reveal condition
/// ln P_t3 = lp2 + drift_b + sd_b * z3 > ln L becomes the linear threshold
/// z3 > c0 + c1 * z2.  No per-sample GbmLaw, log or exp survives; the
/// per-sample evaluation itself runs through the SIMD kernel dispatch
/// (math::simd::KernelTable::zkernel_eval) over masked lanes: an in-region
/// mask for the t2 lock, a reveal mask for the t3 threshold, and -- under
/// the control-variate estimator -- an erfc-based smoothed-probability
/// lane P[reveal | z2] = Phi-bar(c0 + c1 z2) (conditional Monte Carlo; the
/// closed-form t3 tail integrates the z3 Bernoulli noise out, which is
/// what lets the t2-lock control explain nearly all remaining variance).
struct ZKernel {
  std::vector<math::simd::ZIntervalPod> region;  // few pieces (Fig. 7)
  double c0 = 0.0;
  double c1 = 0.0;
  bool always_reveal = false;

  static ZKernel build(const model::SwapParams& params,
                       const math::IntervalSet& region_p, double cutoff) {
    const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
    const double la_mean = law_a.log_mean();
    const double la_sd = law_a.log_stddev();
    ZKernel k;
    k.region.reserve(region_p.size());
    for (const math::Interval& iv : region_p.intervals()) {
      math::simd::ZIntervalPod z;
      z.lo = iv.lo <= 0.0 ? -std::numeric_limits<double>::infinity()
                          : (std::log(iv.lo) - la_mean) / la_sd;
      z.hi = std::isinf(iv.hi) ? std::numeric_limits<double>::infinity()
                               : (std::log(iv.hi) - la_mean) / la_sd;
      if (z.hi > z.lo) k.region.push_back(z);
    }
    const double drift_b =
        (params.gbm.mu - 0.5 * params.gbm.sigma * params.gbm.sigma) *
        params.tau_b;
    const double sd_b = params.gbm.sigma * std::sqrt(params.tau_b);
    if (cutoff <= 0.0) {
      k.always_reveal = true;
    } else {
      k.c0 = (std::log(cutoff) - drift_b - la_mean) / sd_b;
      k.c1 = -la_sd / sd_b;
    }
    return k;
  }

  /// Plain-data view for the dispatchable evaluator; `smooth` selects the
  /// conditionally-smoothed payoff lane.  The view borrows `region`.
  [[nodiscard]] math::simd::ZKernelPod pod(bool smooth) const noexcept {
    return {region.data(), region.size(), c0, c1, always_reveal, smooth};
  }
};

/// Mergeable per-chunk partial: counters plus the success/control sums.
struct VrPartial {
  McEstimate mc;
  math::ControlVariateAccumulator acc;

  void merge(const VrPartial& other) {
    mc.merge(other.mc);
    acc.merge(other.acc);
  }
};

/// Folds one kernel pass's aggregate lock/reveal counts into the
/// counters.  Every sample of the pass initiated; n - locked declined at
/// t2, revealed succeeded, and the locked-but-unrevealed remainder
/// declined at t3.  Outcome keys are only materialized when hit, matching
/// the per-sample map behaviour the scalar loop had.
void apply_counts(const math::simd::ZEvalCounts& c, std::size_t n,
                  McEstimate& mc) {
  mc.initiated.merge(math::BinomialCounter::from_counts(n, n));
  mc.success.merge(math::BinomialCounter::from_counts(c.revealed, n));
  const std::uint64_t declined_t2 = n - c.locked;
  const std::uint64_t declined_t3 = c.locked - c.revealed;
  if (declined_t2 > 0) {
    mc.outcomes[proto::SwapOutcome::kBobDeclinedT2] += declined_t2;
  }
  if (c.revealed > 0) {
    mc.outcomes[proto::SwapOutcome::kSuccess] += c.revealed;
  }
  if (declined_t3 > 0) {
    mc.outcomes[proto::SwapOutcome::kAliceDeclinedT3] += declined_t3;
  }
}

void run_vr_chunk(const ZKernel& k, const McConfig& config,
                  math::Xoshiro256& rng, std::size_t count, VrPartial& out) {
  // SoA draw/observation buffers, reused across the chunks a worker
  // executes.
  thread_local std::vector<double> z2_buf;
  thread_local std::vector<double> z3_buf;
  thread_local std::vector<double> y1_buf;
  thread_local std::vector<double> x1_buf;
  const std::size_t base_n = config.antithetic ? (count + 1) / 2 : count;
  z2_buf.resize(base_n);
  z3_buf.resize(base_n);
  y1_buf.resize(base_n);
  x1_buf.resize(base_n);
  math::fill_normal_inverse_cdf(rng, z2_buf.data(), base_n);
  math::fill_normal_inverse_cdf(rng, z3_buf.data(), base_n);

  const math::simd::ZKernelPod pod = k.pod(config.control_variate);
  const math::simd::KernelTable& kt = math::simd::kernels();
  apply_counts(kt.zkernel_eval(pod, z2_buf.data(), z3_buf.data(), 1.0,
                               y1_buf.data(), x1_buf.data(), base_n),
               base_n, out.mc);
  if (!config.antithetic) {
    out.acc.add_block(y1_buf.data(), x1_buf.data(), count);
    return;
  }
  // Antithetic: a second, mirrored vector pass over the negated draws;
  // the PAIR AVERAGE is one accumulator observation.  A ragged final pair
  // (odd count) degrades to a single unpaired observation -- still
  // unbiased.
  thread_local std::vector<double> y2_buf;
  thread_local std::vector<double> x2_buf;
  const std::size_t mirrored = count - base_n;  // base_n or base_n - 1
  y2_buf.resize(base_n);
  x2_buf.resize(base_n);
  apply_counts(kt.zkernel_eval(pod, z2_buf.data(), z3_buf.data(), -1.0,
                               y2_buf.data(), x2_buf.data(), mirrored),
               mirrored, out.mc);
  for (std::size_t j = 0; j < mirrored; ++j) {
    y1_buf[j] = 0.5 * (y1_buf[j] + y2_buf[j]);
    x1_buf[j] = 0.5 * (x1_buf[j] + x2_buf[j]);
  }
  out.acc.add_block(y1_buf.data(), x1_buf.data(), base_n);
}

/// Shared engine body: kernelizes (region, cutoff), fans chunks out over
/// the adaptive driver, and assembles the VrEstimate.
VrEstimate run_batched(const model::SwapParams& params,
                       const math::IntervalSet& region, double cutoff,
                       double control_mean, bool initiated,
                       const McConfig& config) {
  VrEstimate est;
  est.control_variate = config.control_variate;
  est.confidence = config.ci_confidence;
  if (config.control_variate) est.control_mean = control_mean;
  if (!initiated) {
    // No randomness to draw: every sample is kNotInitiated.
    for (std::size_t i = 0; i < config.samples; ++i) {
      est.mc.initiated.add(false);
      est.mc.success.add(false);
    }
    if (config.samples > 0) {
      est.mc.outcomes[proto::SwapOutcome::kNotInitiated] = config.samples;
      est.rounds = 1;
    }
    est.samples = config.samples;
    return est;
  }

  const ZKernel kernel = ZKernel::build(params, region, cutoff);
  VrPartial merged;
  const auto should_stop = [&config](const VrPartial& m, std::size_t done) {
    if (config.target_half_width <= 0.0) return false;
    if (done < config.min_samples || m.acc.count() < 2) return false;
    const double hw = config.control_variate
                          ? m.acc.adjusted_half_width(config.ci_confidence)
                          : m.acc.plain_half_width(config.ci_confidence);
    return hw <= config.target_half_width;
  };
  const std::size_t round_chunks =
      config.target_half_width > 0.0 ? detail::kVrRoundChunks : 0;
  const detail::DriverResult run = detail::adaptive_parallel_mc(
      config.samples, detail::kModelMcChunk, config.threads, round_chunks,
      math::Xoshiro256(config.seed), merged,
      [&](std::size_t, std::size_t count, math::Xoshiro256& rng,
          VrPartial& out) { run_vr_chunk(kernel, config, rng, count, out); },
      should_stop);
  est.mc = merged.mc;
  est.acc = merged.acc;
  est.samples = run.samples;
  est.rounds = run.rounds;
  return est;
}

}  // namespace

VrEstimate detail::model_mc_vr(const model::SwapParams& params, double p_star,
                               double collateral, const McConfig& config) {
  params.validate();
  // Thresholds are identical across samples; solve the game once.
  const model::CollateralGame game(params, p_star, collateral);
  const bool initiated =
      collateral > 0.0
          ? game.engaged()
          : game.basic().alice_decision_t1() == model::Action::kCont;
  return run_batched(params, game.bob_t2_region(), game.alice_t3_cutoff(),
                     game.bob_t2_cont_probability(), initiated, config);
}

VrEstimate detail::profile_mc_vr(const model::SwapParams& params,
                                 const model::ThresholdProfile& profile,
                                 const McConfig& config) {
  params.validate();
  // Analytic control mean for an arbitrary region: lognormal CDF mass of
  // the profile's t2 region (the profile analogue of
  // bob_t2_cont_probability).
  const math::GbmLaw law_a(params.gbm, params.p_t0, params.tau_a);
  double control_mean = 0.0;
  for (const math::Interval& iv : profile.bob_region.intervals()) {
    const double lo = std::max(iv.lo, 1e-12);
    if (!(iv.hi > lo)) continue;
    control_mean += std::isinf(iv.hi) ? law_a.survival(lo)
                                      : law_a.cdf(iv.hi) - law_a.cdf(lo);
  }
  control_mean = std::min(1.0, std::max(0.0, control_mean));
  return run_batched(params, profile.bob_region, profile.alice_cutoff,
                     control_mean, /*initiated=*/true, config);
}

}  // namespace swapgame::sim
