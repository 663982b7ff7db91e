// Deterministic pseudo-random number generation for the Monte-Carlo engine.
//
// xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, plus normal
// deviates via both polar Box-Muller and the inverse-CDF method (the latter
// gives a monotone map from uniforms to normals, which makes common-random-
// number variance reduction possible across scenario sweeps).
#pragma once

#include <array>
#include <cstdint>

namespace swapgame::math {

/// SplitMix64: used to expand a single seed into a full xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256++ PRNG.  Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Equivalent to 2^64 * 2^128 calls to operator() (the canonical 2^192
  /// long jump); used to partition one seed into independent per-chunk
  /// streams.
  void long_jump() noexcept;

  /// Equivalent to 2^128 calls to operator(); used by the block fills to
  /// derive the kFillLanes generator lanes WITHIN one chunk stream.  A
  /// chunk's lane offsets (< 8 * 2^128) can never reach the next chunk's
  /// long_jump offset (2^192), so lanes and streams stay disjoint.
  void jump() noexcept;

  /// Returns a copy advanced by `n` long jumps: the reference definition
  /// of Monte-Carlo chunk n's stream (sim::detail::adaptive_parallel_mc
  /// derives the same streams incrementally, one long_jump per chunk).
  [[nodiscard]] Xoshiro256 stream(unsigned n) const noexcept;

  /// Raw state access for the block generators (simd_dag.hpp), which step
  /// many jump-separated copies of one generator in parallel lanes.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return s_;
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Uniform double in [0, 1) with 53 random bits.
[[nodiscard]] double uniform01(Xoshiro256& rng) noexcept;

/// Standard normal deviate via the inverse-CDF method (monotone in the
/// underlying uniform; one uniform consumed per deviate).
[[nodiscard]] double normal_inverse_cdf_draw(Xoshiro256& rng) noexcept;

/// Number of jump-separated generator lanes the block fills interleave.
/// Fixed at 8 on every platform and dispatch level: the lane count defines
/// the draw order, so it must not follow the register width.
inline constexpr std::size_t kFillLanes = 8;

/// Block fill of `n` uniforms strictly inside (0, 1).
///
/// LANE-INTERLEAVED CONTRACT (machine-independent; SIMD dispatch only
/// changes how many lanes are stepped per instruction, never the values):
///  * lane j (j < kFillLanes) is the caller's generator advanced by j
///    jump()s; out[q * kFillLanes + j] is lane j's q-th draw mapped by
///    u = (word >> 11 + 0.5) * 2^-53, clamped to at most 1 - 2^-53 (the
///    all-ones word would otherwise round up to exactly 1.0);
///  * a partial final group still steps ALL lanes (surplus draws are
///    discarded), and the caller's generator continues as lane 0 advanced
///    ceil(n / kFillLanes) steps -- so fills are prefix-stable, and
///    fill(n1) then fill(n2) equals fill(n1 + n2) whenever n1 is a
///    multiple of kFillLanes.
void fill_uniform01(Xoshiro256& rng, double* out, std::size_t n) noexcept;

/// Block fill of `n` standard normals: fill_uniform01 followed by the
/// elementwise normal_quantile transform (same lane-interleaved draw
/// order).  The batched Monte-Carlo engine fills structure-of-arrays
/// buffers with this instead of interleaving draws with payoff logic.
void fill_normal_inverse_cdf(Xoshiro256& rng, double* out,
                             std::size_t n) noexcept;

/// Standard normal deviates via the polar Box-Muller method.  Stateless
/// helper returning a pair to avoid hidden caching.
struct NormalPair {
  double first;
  double second;
};
[[nodiscard]] NormalPair normal_box_muller(Xoshiro256& rng) noexcept;

}  // namespace swapgame::math
