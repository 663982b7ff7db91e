// Content-addressed result cache: in-memory LRU in front of an optional
// on-disk store, both keyed by RunSpec::hash().
//
// Disk layout: one file per entry, `<dir>/<hash>.json`, holding the single
// to_entry() JSONL line.  Entries carry the schema version and their own
// hash; load() rejects (and counts) anything with a version mismatch, a
// hash that does not match the filename, or a malformed line -- a stale or
// corrupt cache degrades to misses, never to wrong results.  Writes go
// through a temp file + rename so concurrent processes sharing a cache
// directory only ever observe complete entries, and an entry is on disk
// the moment its put() returns -- which is what lets a killed batch rerun
// over the same directory resume where it stopped.  A failed write
// removes its temp file.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "run_spec.hpp"

namespace swapgame::engine {

class ResultCache {
 public:
  /// @param memory_capacity  max in-memory entries (0 disables the LRU).
  /// @param disk_dir         on-disk store directory, created on first
  ///                         write ("" disables the disk tier).
  explicit ResultCache(std::size_t memory_capacity, std::string disk_dir);

  /// Looks `hash` up in the LRU, then on disk (a disk hit is promoted
  /// into the LRU).  Thread-safe.  When `from_disk` is non-null it is set
  /// to whether the hit came from the disk tier -- the daemon reports
  /// per-cell cache provenance through this.
  [[nodiscard]] std::optional<RunResult> get(const std::string& hash,
                                             bool* from_disk = nullptr);

  /// Inserts into the LRU (evicting least-recently-used beyond capacity)
  /// and persists to the disk tier when enabled.  Thread-safe.
  void put(const std::string& hash, const RunResult& result);

  /// Lookups that hit the in-memory tier / the disk tier.
  [[nodiscard]] std::uint64_t memory_hits() const;
  [[nodiscard]] std::uint64_t disk_hits() const;
  /// Disk entries rejected for version/hash mismatch or parse failure.
  [[nodiscard]] std::uint64_t disk_rejected() const;

 private:
  void touch_locked(const std::string& hash, RunResult result);

  const std::size_t memory_capacity_;
  const std::string disk_dir_;

  mutable std::mutex mutex_;
  /// Most-recently-used first; the map points into the list.
  std::list<std::pair<std::string, RunResult>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, RunResult>>::iterator>
      index_;
  std::uint64_t memory_hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_rejected_ = 0;
};

}  // namespace swapgame::engine
