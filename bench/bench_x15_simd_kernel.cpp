// X15 SIMD kernel -- throughput and determinism of the runtime-dispatched
// Monte-Carlo hot loops (src/math/simd).
//
// Measures, at every dispatch level this host supports (scalar always,
// AVX2/AVX-512 when CPUID says so):
//   * the xoshiro256++ lane-interleaved uniform block fill;
//   * the in-place inverse-normal-CDF transform;
//   * the end-to-end x1-style adaptive model-MC run (fill + quantile +
//     zkernel + Welford, CI-targeted stopping) -- the loop the SIMD layer
//     exists for.
// The run first re-proves the determinism contract (wider levels must
// reproduce the scalar reference byte-for-byte) and then reports samples
// per second.  The speedup metrics are the acceptance criterion: on an
// AVX2-capable host the vectorized adaptive MC kernel must clear 3x the
// scalar samples/sec.  Wall-clock based, so bench_gate.py gates them as
// lower-bounded metrics (fresh >= baseline * (1 - tolerance)) instead of
// the usual upper bound.
//
// Every wall-clock reading prints on a TIME line, so the stdout minus TIME
// lines is the same on every run of one host, apart from the CHECK lines of
// the two speedup claims; the CSV blocks list which level each TIME line
// measured.  JSON metric names are host-stable: only
// scalar and AVX2 (which every CI runner and baseline host has) get
// per-level entries in BENCH_x15_simd_kernel.json; AVX-512 readings are
// TIME lines only.  Otherwise a baseline refreshed on an AVX-512 box would
// trip bench_gate's metric-disappeared check on an AVX2-only runner.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "model/params.hpp"
#include "sim/mc_runner.hpp"

using namespace swapgame;
using math::simd::KernelTable;
using math::simd::SimdLevel;

namespace {

/// Best-of-`reps` wall-clock seconds of fn() (min absorbs scheduler noise).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s);
  }
  return best;
}

/// Wall budget per dispatch level of the adaptive model-MC timing.
constexpr double kMcBudgetSeconds = 0.25;

/// The median of `values` (reordered).
double median(std::vector<double>& values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Records one wall-clock rate per dispatch level: in the JSON for scalar
/// and AVX2, as a TIME line only for AVX-512 (see the file comment).
/// Returns the reading's name for the CSV row that points at it.
std::string record_rate(bench::Report& report, const std::string& prefix,
                        SimdLevel level, double value) {
  const std::string name = prefix + math::simd::to_string(level);
  if (level <= SimdLevel::kAvx2) {
    report.time_metric(name, value);
  } else {
    report.time_line(name, value);
  }
  return name;
}

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (math::simd::level_supported(level)) levels.push_back(level);
  }
  return levels;
}

}  // namespace

int main() {
  bench::Report report(
      "X15 SIMD kernel -- dispatched MC hot-loop throughput",
      "Vector kernels must match the scalar reference bitwise and beat it "
      "on samples/sec (>= 3x adaptive model-MC on AVX2).");

  const std::vector<SimdLevel> levels = supported_levels();
  const SimdLevel active = math::simd::active_level();
  report.note(std::string("dispatch resolves to ") +
              math::simd::to_string(active));
  report.metric("simd_dispatch_level", static_cast<double>(active));

  // --- Determinism spot-check: every level reproduces the scalar bytes
  // for one fill + quantile block from a shared seed.
  {
    constexpr std::size_t kN = 1u << 16;
    const KernelTable* scalar = math::simd::kernels(SimdLevel::kScalar);
    math::Xoshiro256 ref_rng(42);
    std::vector<double> ref(kN);
    scalar->fill_uniform01(ref_rng, ref.data(), kN);
    scalar->normal_quantile_transform(ref.data(), kN);
    const std::uint64_t ref_next = ref_rng();  // post-fill generator state
    report.csv_begin("bitwise_check", "level,bitwise_equal");
    bool all_equal = true;
    for (const SimdLevel level : levels) {
      const KernelTable* kt = math::simd::kernels(level);
      math::Xoshiro256 rng(42);
      std::vector<double> got(kN);
      kt->fill_uniform01(rng, got.data(), kN);
      kt->normal_quantile_transform(got.data(), kN);
      const bool equal =
          std::memcmp(got.data(), ref.data(), kN * sizeof(double)) == 0 &&
          rng() == ref_next;
      report.csv_row(bench::fmt("%s,%d", math::simd::to_string(level),
                                equal ? 1 : 0));
      all_equal = all_equal && equal;
    }
    report.claim("every dispatch level matches the scalar bytes", all_equal);
  }

  // --- Raw kernel throughput: uniform fill and quantile transform.
  constexpr std::size_t kBuf = 1u << 16;
  constexpr int kIters = 64;  // per timing rep; best of 5 reps
  std::vector<double> fill_msps(levels.size());
  {
    report.csv_begin("fill_throughput", "level,time_line");
    std::vector<double> buf(kBuf);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const KernelTable* kt = math::simd::kernels(levels[i]);
      math::Xoshiro256 rng(7);
      const double s = best_seconds(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          kt->fill_uniform01(rng, buf.data(), kBuf);
        }
      });
      fill_msps[i] = static_cast<double>(kBuf) * kIters / s / 1e6;
      report.csv_row(
          std::string(math::simd::to_string(levels[i])) + "," +
          record_rate(report, "simd_fill_msps_", levels[i], fill_msps[i]));
    }
  }
  {
    report.csv_begin("quantile_throughput", "level,time_line");
    std::vector<double> uniforms(kBuf);
    std::vector<double> work(kBuf);
    math::Xoshiro256 rng(7);
    math::simd::kernels(SimdLevel::kScalar)
        ->fill_uniform01(rng, uniforms.data(), kBuf);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const KernelTable* kt = math::simd::kernels(levels[i]);
      // Re-copy the uniforms each iteration: the transform is in-place and
      // must always see in-domain inputs (memcpy is noise next to it).
      const double s = best_seconds(5, [&] {
        for (int it = 0; it < kIters; ++it) {
          std::memcpy(work.data(), uniforms.data(), kBuf * sizeof(double));
          kt->normal_quantile_transform(work.data(), kBuf);
        }
      });
      const double msps = static_cast<double>(kBuf) * kIters / s / 1e6;
      report.csv_row(std::string(math::simd::to_string(levels[i])) + "," +
                     record_rate(report, "simd_quantile_msps_", levels[i],
                                 msps));
    }
  }

  // --- End-to-end: the x1 adaptive model-MC run per dispatch level.  The
  // sample count is identical at every level (bitwise determinism means
  // the stopping rule fires at the same round), so samples/sec isolates
  // the kernel speed.  One run takes 5-10 ms, too short to time alone on
  // a shared host: the levels take turns running it until each has had
  // about kMcBudgetSeconds, so a change in host load hits every level
  // alike, and each level's rate comes from its median run.
  std::vector<double> mc_msps(levels.size());
  {
    sim::McRunSpec spec;
    spec.evaluator = sim::McEvaluator::kModel;
    spec.params = model::SwapParams::table3_defaults();
    spec.p_star = 2.0;
    spec.config.samples = 1u << 21;
    spec.config.seed = 1001;
    spec.config.target_half_width = 0.002;
    report.csv_begin("adaptive_mc_throughput", "level,samples,time_line");
    std::vector<std::vector<double>> run_seconds(levels.size());
    std::vector<std::size_t> samples(levels.size());
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const double budget =
        kMcBudgetSeconds * static_cast<double>(levels.size());
    while (std::chrono::duration<double>(Clock::now() - start).count() <
           budget) {
      for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!math::simd::force_level(levels[i])) continue;
        const auto t0 = Clock::now();
        samples[i] = sim::McRunner::run(spec).samples;
        run_seconds[i].push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      }
    }
    bool samples_agree = true;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (run_seconds[i].empty()) continue;
      samples_agree = samples_agree && samples[i] == samples[0];
      mc_msps[i] = static_cast<double>(samples[i]) /
                   median(run_seconds[i]) / 1e6;
      report.csv_row(
          bench::fmt("%s,%zu,", math::simd::to_string(levels[i]), samples[i]) +
          record_rate(report, "simd_mc_msps_", levels[i], mc_msps[i]));
    }
    math::simd::reset_level();
    report.claim("adaptive stopping fires identically at every level",
                 samples_agree);
  }

  // --- Speedups.  simd_speedup_avx2_mc is the gated acceptance metric
  // (floor-bounded by bench_gate.py); the active-level ratio is
  // informational only, since the active level differs across hosts.
  {
    const double scalar_mc = mc_msps[0];
    double avx2_mc = 0.0;
    double active_mc = scalar_mc;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i] == SimdLevel::kAvx2) avx2_mc = mc_msps[i];
      if (levels[i] == active) active_mc = mc_msps[i];
    }
    if (avx2_mc > 0.0) {
      report.time_metric("simd_speedup_avx2_mc", avx2_mc / scalar_mc);
      report.claim("AVX2 adaptive model-MC >= 3x scalar samples/sec",
                   avx2_mc >= 3.0 * scalar_mc);
    } else {
      report.note("host lacks AVX2; the speedup gate metric is skipped");
    }
    report.time_metric("simd_mc_speedup_active", active_mc / scalar_mc);
    report.claim("active dispatch level is no slower than scalar",
                 active_mc >= scalar_mc);
  }

  return report.exit_code();
}
