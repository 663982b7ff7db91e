#include "result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace swapgame::engine {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::size_t memory_capacity, std::string disk_dir)
    : memory_capacity_(memory_capacity), disk_dir_(std::move(disk_dir)) {}

void ResultCache::touch_locked(const std::string& hash, RunResult result) {
  if (memory_capacity_ == 0) return;
  const auto it = index_.find(hash);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(result);
    return;
  }
  lru_.emplace_front(hash, std::move(result));
  index_[hash] = lru_.begin();
  while (lru_.size() > memory_capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::optional<RunResult> ResultCache::get(const std::string& hash,
                                          bool* from_disk) {
  if (from_disk != nullptr) *from_disk = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(hash);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++memory_hits_;
      return it->second->second;
    }
  }
  if (disk_dir_.empty()) return std::nullopt;

  // Disk tier, read outside the lock (pure file read; worst case two
  // threads both read the same entry and both promote it -- idempotent).
  std::ifstream in(fs::path(disk_dir_) / (hash + ".json"));
  if (!in) return std::nullopt;
  std::string line;
  std::getline(in, line);
  auto parsed = RunResult::parse_entry(line);
  if (!parsed || parsed->first != hash) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++disk_rejected_;
    return std::nullopt;
  }
  if (from_disk != nullptr) *from_disk = true;
  std::lock_guard<std::mutex> lock(mutex_);
  ++disk_hits_;
  touch_locked(hash, parsed->second);
  return std::move(parsed->second);
}

void ResultCache::put(const std::string& hash, const RunResult& result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    touch_locked(hash, result);
  }
  if (disk_dir_.empty()) return;

  // Atomic publish: write a writer-unique temp file, then rename over the
  // final name.  Concurrent writers of the SAME entry (two processes
  // sharing a cache dir) each publish identical bytes; last rename wins.
  static std::atomic<std::uint64_t> tmp_counter{0};
  std::error_code ec;
  fs::create_directories(disk_dir_, ec);  // best-effort; open() reports
  const fs::path final_path = fs::path(disk_dir_) / (hash + ".json");
  const fs::path tmp_path =
      fs::path(disk_dir_) /
      (hash + ".tmp." + std::to_string(::getpid()) + "." +
       std::to_string(tmp_counter.fetch_add(1)));
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (out) {
      out << result.to_entry(hash) << '\n';
      written = static_cast<bool>(out.flush());
    }
  }
  std::error_code rename_ec;
  if (written) fs::rename(tmp_path, final_path, rename_ec);
  // Any failure (unwritable dir, short write, a final name held by a
  // directory) degrades to no disk entry and leaves no temp file behind.
  if (!written || rename_ec) fs::remove(tmp_path, ec);
}

std::uint64_t ResultCache::memory_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_hits_;
}

std::uint64_t ResultCache::disk_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_hits_;
}

std::uint64_t ResultCache::disk_rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_rejected_;
}

}  // namespace swapgame::engine
