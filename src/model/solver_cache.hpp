// Solver acceleration for parameter sweeps (ROADMAP: hot-path speed).
//
// Every figure/table sweep builds hundreds of games at closely spaced
// (P*, Q) points, and each cold construction re-isolates the t2-region
// roots over a 2048/4096-sample scan -- the dominant cost of regenerating
// the paper's artifacts.  Neighbouring grid points have nearly identical
// root structure, so a sweep can warm-start each solve from the previous
// point's roots (BasicGame's root hints, sign_region.hpp) and memoize games
// that several scans query at the same rate.
//
// The sweepers below are deliberately NOT thread-safe: a parallel sweep
// creates one sweeper per worker chunk (grid points inside a chunk are
// contiguous, so the warm chain stays coherent).  The process-wide
// feasible-band cache *is* thread-safe.
//
// Invalidation: none needed.  Games are immutable, sweeper state is only a
// hint (always verified against the target game's own indifference
// function, with a cold-scan fallback), and the feasible-band cache is
// keyed by the exact bit patterns of every SwapParams field plus the scan
// window -- any parameter change is a different key.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "basic_game.hpp"
#include "collateral_game.hpp"
#include "params.hpp"

namespace swapgame::model {

/// Warm-chained, memoizing factory for BasicGame over a P* sweep.
/// Queries at an exact P* seen before return the cached game; new P* values
/// are solved warm-started from the most recently built game's t2 roots.
/// Results agree with cold construction to solver tolerance (~1e-12).
/// Not thread-safe -- use one sweeper per thread/chunk.
class BasicGameSweeper {
 public:
  explicit BasicGameSweeper(const SwapParams& params);

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }

  /// The game at `p_star` (shared ownership; cached for repeat queries).
  std::shared_ptr<const BasicGame> at(double p_star);

 private:
  SwapParams params_;
  std::vector<double> last_roots_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const BasicGame>> memo_;
};

/// Warm-chained, memoizing factory for CollateralGame over a (P*, Q) sweep.
/// Chains both the embedded basic game's roots and the collateral region's
/// roots; the chain survives moves in either coordinate (hints are always
/// verified, so a structural change just falls back to the cold scan).
/// Not thread-safe -- use one sweeper per thread/chunk.
class CollateralGameSweeper {
 public:
  explicit CollateralGameSweeper(const SwapParams& params);

  [[nodiscard]] const SwapParams& params() const noexcept { return params_; }

  /// The game at (`p_star`, `collateral`) (shared; cached for repeats).
  std::shared_ptr<const CollateralGame> at(double p_star, double collateral);

 private:
  struct Key {
    std::uint64_t p_bits = 0;
    std::uint64_t q_bits = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  SwapParams params_;
  std::vector<double> last_basic_roots_;
  std::vector<double> last_roots_;
  std::unordered_map<Key, std::shared_ptr<const CollateralGame>, KeyHash> memo_;
};

/// Process-wide memoized alice_feasible_band: the band depends only on
/// SwapParams (P*-independent), and several artifacts re-derive it for the
/// same parameter set.  Keyed by the exact bits of every parameter and the
/// scan window; thread-safe.
[[nodiscard]] FeasibleBand cached_feasible_band(const SwapParams& params,
                                                double scan_lo = 0.05,
                                                double scan_hi = 10.0,
                                                int scan_samples = 400);

}  // namespace swapgame::model
