// Internal chunk scheduler shared by the Monte-Carlo engines
// (monte_carlo.cpp, estimators.cpp).  Not installed.
//
// Samples are partitioned into FIXED-size chunks with per-chunk RNG streams
// keyed by the chunk INDEX (never the worker count), exactly as documented
// in monte_carlo.hpp: chunk c draws from base.stream(c).  This scheduler adds
// CI-targeted adaptive stopping on top without weakening that contract:
// chunks are issued in ROUNDS of a fixed number of chunks, partial
// estimates merge in ascending chunk order after every round, and the stop
// predicate sees only the merged estimate.  The stop decision is therefore
// a deterministic function of (seed, chunk partition, round size) --
// bit-identical at threads=1 and threads=N.
//
// The scheduler derives the streams itself, on the calling thread: it keeps
// the next chunk's stream and applies one long_jump per chunk as rounds are
// issued, so a run of C chunks costs C long jumps (base.stream(c) per
// chunk would cost C^2 / 2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "math/rng.hpp"
#include "sweep/sweep.hpp"

namespace swapgame::sim::detail {

// Fixed Monte-Carlo chunk sizes.  The partition and the per-chunk RNG
// streams are keyed by the chunk INDEX, never by the runtime worker count.
// Protocol samples are ~1000x costlier than model samples, hence the
// smaller protocol chunk.  Round sizes set the granularity of the adaptive
// stopping check (and the minimum adaptive draw).
inline constexpr std::size_t kModelMcChunk = 8192;
inline constexpr std::size_t kProtocolMcChunk = 256;
inline constexpr std::size_t kVrRoundChunks = 8;       // 65536 samples/round
inline constexpr std::size_t kProtocolRoundChunks = 4; // 1024 samples/round

struct DriverResult {
  std::size_t samples = 0;  ///< samples actually evaluated
  std::size_t rounds = 0;   ///< rounds issued
};

/// Runs `run_chunk(first_sample, count, rng&, partial&)` for chunks of
/// `total` samples, `round_chunks` chunks per round (0 = everything in one
/// round, i.e. a fixed budget), merging into `merged` in ascending chunk
/// order.  Chunk c's `rng` is base.stream(c), the chunk's own to consume.
/// After each round, `should_stop(merged, samples_done)` decides whether to
/// keep drawing.  Partial must be default-constructible with a
/// merge(const Partial&) member.
template <typename Partial, typename RunChunk, typename ShouldStop>
DriverResult adaptive_parallel_mc(std::size_t total, std::size_t chunk_size,
                                  unsigned threads, std::size_t round_chunks,
                                  const math::Xoshiro256& base,
                                  Partial& merged, const RunChunk& run_chunk,
                                  const ShouldStop& should_stop) {
  DriverResult result;
  if (total == 0) return result;
  const std::size_t n_chunks = (total + chunk_size - 1) / chunk_size;
  if (round_chunks == 0) round_chunks = n_chunks;
  sweep::SweepOptions opts;
  opts.threads = threads;
  opts.fixed_chunk = 1;  // one pool task per Monte-Carlo chunk
  std::size_t next = 0;
  math::Xoshiro256 stream = base;  // chunk `next`'s stream
  while (next < n_chunks) {
    const std::size_t round_end = std::min(n_chunks, next + round_chunks);
    std::vector<Partial> partials(round_end - next);
    std::vector<math::Xoshiro256> streams;
    streams.reserve(round_end - next);
    for (std::size_t c = next; c < round_end; ++c) {
      streams.push_back(stream);
      stream.long_jump();
    }
    sweep::parallel_for(
        round_end - next,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            const std::size_t c = next + j;
            const std::size_t first = c * chunk_size;
            const std::size_t count = std::min(chunk_size, total - first);
            run_chunk(first, count, streams[j], partials[j]);
          }
        },
        opts);
    for (const Partial& partial : partials) merged.merge(partial);
    next = round_end;
    result.samples = std::min(total, next * chunk_size);
    ++result.rounds;
    if (next < n_chunks && should_stop(merged, result.samples)) break;
  }
  return result;
}

}  // namespace swapgame::sim::detail
