// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash function of the HTLC hash lock: Alice's secret preimage
// is committed as sha256(secret) in both contracts (paper Section II-B,
// Fig. 1).  Streaming interface plus one-shot helpers.
//
// Two block compressors give the same digests: the scalar reference and
// one on the x86 SHA extensions (SHA-NI).  The SIMD dispatch setting picks
// between them (math/simd.hpp): SWAPGAME_SIMD=off, or force_level(kScalar),
// runs the scalar one; any vector level runs SHA-NI when the CPU has it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "digest.hpp"

namespace swapgame::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  /// Resets to the initial state.
  void reset() noexcept;

  /// Absorbs more input.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalizes and returns the digest.  The hasher must be reset() before
  /// reuse; calling update() after finalize() without reset() is a
  /// programming error checked by assertion in debug builds.
  [[nodiscard]] Digest256 finalize() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Digest256 hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Digest256 hash(std::string_view text) noexcept;

  /// Whether blocks are compressed with SHA-NI right now (see the file
  /// comment) rather than by the scalar reference.
  [[nodiscard]] static bool uses_sha_ni() noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::size_t buffer_len_;
  std::uint64_t total_bits_;
  bool finalized_;
};

}  // namespace swapgame::crypto
