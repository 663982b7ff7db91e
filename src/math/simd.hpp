// Runtime-dispatched SIMD kernels for the Monte-Carlo hot path.
//
// Three loops dominate the z-space MC engine: the xoshiro256++ uniform
// fill, the inverse-normal-CDF transform, and the ZKernel region/threshold
// evaluation with its Welford accumulator feed.  This header exposes those
// loops as a table of function pointers with scalar, AVX2 and AVX-512
// implementations behind one interface, resolved once at startup from
// CPUID and the SWAPGAME_SIMD environment variable.
//
// THE DETERMINISM CONTRACT (the hard constraint everything here obeys):
// every implementation produces BITWISE IDENTICAL doubles for identical
// inputs, at every dispatch level and every thread count.  That holds
// because all levels execute the same fixed dataflow graph
// (simd_dag.hpp) built exclusively from IEEE-754 exactly-rounded
// operations (+ - * / sqrt min max, bit manipulation) -- never libm, never
// FMA -- and because the data layout is lane-count-agnostic: the uniform
// fill always interleaves kFillLanes = 8 jump-separated generator lanes
// (a wider register just steps more lanes per instruction), and the
// Welford feed always reduces over the same 8 fixed sub-streams.  The
// scalar implementation is the reference; `SWAPGAME_SIMD=off` forces it.
//
// Env values for SWAPGAME_SIMD: "off"/"scalar", "avx2", "avx512", "auto"
// (default).  Requesting an unsupported level falls back to the best
// supported level at or below the request.
//
// The same setting picks the SHA-256 compressor of src/crypto: any vector
// level uses the SHA-NI one when the CPU has it (sha_supported()), the
// scalar level always runs the scalar reference.  Both give the same
// digests, so this choice moves no output byte either.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng.hpp"

namespace swapgame::math::simd {

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar", "avx2" or "avx512".
[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

/// A z2-space interval [lo, hi) of the Bob t2 lock region.
struct ZIntervalPod {
  double lo;
  double hi;
};

/// Plain-data view of sim::ZKernel for the vector evaluator: the t2 lock
/// region as z2 intervals plus Alice's linear t3 reveal threshold
/// z3 > c0 + c1 * z2.
struct ZKernelPod {
  const ZIntervalPod* regions = nullptr;
  std::size_t region_count = 0;
  double c0 = 0.0;
  double c1 = 0.0;
  bool always_reveal = false;  ///< cutoff <= 0: reveal regardless of z3
  bool smooth = false;         ///< y = P[reveal | z2] instead of indicator
};

/// Realized outcome counts of one zkernel_eval block.
struct ZEvalCounts {
  std::size_t locked = 0;    ///< samples with z2 in the lock region
  std::size_t revealed = 0;  ///< locked samples whose z3 cleared the cutoff
};

/// Eight independent Welford accumulators: lane l sees observations
/// l, l + 8, l + 16, ... of a block.  The fixed lane count (not the
/// register width) defines the summation order, so every dispatch level
/// reduces a block to the exact same 48 doubles.
struct WelfordLanes {
  double n[8];
  double mean_y[8];
  double mean_x[8];
  double m2y[8];
  double m2x[8];
  double cxy[8];
};

/// The dispatchable kernel set.  All functions obey the scalar reference
/// semantics documented at their call sites (rng.hpp, stats.hpp,
/// estimators.cpp) bit-for-bit.
struct KernelTable {
  /// Block fill of uniforms in (0, 1); see math::fill_uniform01.
  void (*fill_uniform01)(Xoshiro256& rng, double* out, std::size_t n);
  /// In-place Phi^-1 over a buffer; elementwise equal to
  /// math::normal_quantile.
  void (*normal_quantile_transform)(double* buf, std::size_t n);
  /// Evaluates n (z2, z3) skeletons (each multiplied by `sign`, +1 or -1
  /// for the antithetic mirror pass) against the kernel, writing the
  /// accumulator observations y[i], x[i] and returning outcome counts.
  ZEvalCounts (*zkernel_eval)(const ZKernelPod& kernel, const double* z2,
                              const double* z3, double sign, double* y,
                              double* x, std::size_t n);
  /// Folds a block of (y, x) observations into the 8 fixed Welford lanes
  /// (caller zero-initializes or continues an existing `lanes`).
  void (*welford_block)(const double* y, const double* x, std::size_t n,
                        WelfordLanes& lanes);
};

/// The active kernel table (env + CPUID resolution, or a forced level).
[[nodiscard]] const KernelTable& kernels() noexcept;

/// The level kernels() currently dispatches to.
[[nodiscard]] SimdLevel active_level() noexcept;

/// True when this build + CPU can execute `level`.
[[nodiscard]] bool level_supported(SimdLevel level) noexcept;

/// Table for a specific level; nullptr when unsupported.  Lets tests and
/// benches compare levels directly without flipping global state.
[[nodiscard]] const KernelTable* kernels(SimdLevel level) noexcept;

/// Test/bench hook: pin dispatch to `level`.  Returns false (and changes
/// nothing) when the level is unsupported.  Not thread-safe against
/// concurrent kernel users; flip only between runs.
bool force_level(SimdLevel level) noexcept;

/// Undo force_level(): back to env + CPUID resolution.
void reset_level() noexcept;

/// True when the CPU has the SHA extensions (SHA-NI) and SSE4.1, which the
/// SHA-NI compressor of crypto::Sha256 needs.
[[nodiscard]] bool sha_supported() noexcept;

}  // namespace swapgame::math::simd
