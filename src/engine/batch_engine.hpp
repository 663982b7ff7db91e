// BatchEngine: executes a DAG of RunSpecs on a sweep::ThreadPool with a
// content-addressed result cache.
//
// One cell = one pool task (the MC engines inside a cell run serially;
// parallelism comes from independent cells, which is work-stealing
// friendly: the central queue hands each finished worker the next ready
// cell regardless of size).  Results are returned in input order and are
// bit-identical at any thread count, warm or cold cache, interrupted or
// not -- every cell is a pure function of its canonical spec
// (run_spec.hpp), so caching substitutes stored bits for recomputed bits,
// never different ones.
//
// Lookup order per cell: in-memory LRU -> on-disk store -> evaluate (and
// store).  The disk tier publishes each entry atomically as its cell
// completes, so a killed batch rerun over the same cache directory
// resumes: finished cells are disk hits, only the rest are evaluated.
// See docs/ENGINE.md.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "job.hpp"
#include "obs/metrics.hpp"
#include "result_cache.hpp"
#include "run_spec.hpp"
#include "sweep/thread_pool.hpp"

namespace swapgame::engine {

struct EngineConfig {
  /// Worker count: 0 = the process-wide sweep::shared_pool() (whose width
  /// honors SWAPGAME_THREADS); 1 = serial inline (no pool); else a private
  /// pool of that width.
  unsigned threads = 0;
  /// In-memory LRU capacity in entries (0 disables the memory tier).
  std::size_t memory_capacity = 4096;
  /// On-disk cache directory ("" disables; benches wire SWAPGAME_CACHE_DIR
  /// here -- see bench/bench_engine.hpp).
  std::string cache_dir;
  /// Optional metrics sink; the engine increments engine.* counters as it
  /// runs and records per-batch pool queue depth.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Monotone engine telemetry (lifetime of the engine instance).
struct EngineStats {
  std::uint64_t cells_total = 0;     ///< cells requested across batches
  std::uint64_t cells_run = 0;       ///< cells actually evaluated
  std::uint64_t memory_hits = 0;     ///< served from the in-memory LRU
  std::uint64_t disk_hits = 0;       ///< served from the on-disk cache
  std::uint64_t mc_samples_run = 0;  ///< MC samples inside evaluated cells
  std::uint64_t mc_samples_cached = 0;  ///< MC samples served from storage
  std::uint64_t entries_rejected = 0;   ///< stale/corrupt entries ignored
  /// Pool telemetry for this engine's batches (0 in serial mode).
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_max_queue_depth = 0;

  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return memory_hits + disk_hits;
  }
};

/// Where one cell's result came from (per-cell provenance; the daemon
/// streams this to clients so warm-vs-cold runs are observable).
enum class CellSource : std::uint8_t {
  kEvaluated,  ///< computed fresh by evaluate_cell
  kMemory,     ///< served from the in-memory LRU
  kDisk,       ///< served from the on-disk cache
};
[[nodiscard]] const char* to_string(CellSource source) noexcept;
[[nodiscard]] constexpr bool is_cached(CellSource source) noexcept {
  return source != CellSource::kEvaluated;
}

class BatchEngine {
 public:
  explicit BatchEngine(EngineConfig config = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Evaluates one cell through the cache tiers.
  [[nodiscard]] RunResult run(const RunSpec& spec);

  /// Single-cell path with provenance reporting: same tier walk as the
  /// batch path (memory LRU -> disk -> evaluate), `*source` says which
  /// tier answered.  Unlike run(spec) this never routes through
  /// run_batch -- it is the direct, thread-safe call an external
  /// scheduler (the swapgamed dispatcher) issues from its own pool
  /// workers; evaluation errors propagate as exceptions to the caller
  /// and metrics publication is left to the owner.
  [[nodiscard]] RunResult run(const RunSpec& spec, CellSource* source);

  /// Executes independent cells (no ordering constraints).
  [[nodiscard]] std::vector<RunResult> run_batch(
      const std::vector<RunSpec>& specs);

  /// Executes a DAG; throws std::invalid_argument, with
  /// JobSchedule::build's message, on out-of-range or cyclic
  /// dependencies.  Results are in node order.
  [[nodiscard]] std::vector<RunResult> run_batch(
      const std::vector<BatchNode>& nodes);

  [[nodiscard]] EngineStats stats() const;

 private:
  struct BatchState;

  /// The one tier walk: memory/disk lookup, else evaluate and store a
  /// complete result.  Evaluation errors propagate to the caller.
  [[nodiscard]] RunResult resolve(const RunSpec& spec,
                                  const std::string& hash,
                                  CellSource& source);
  void process_cell(BatchState& state, std::size_t index);
  void finish_cell(BatchState& state, std::size_t index, RunResult result);
  [[nodiscard]] sweep::ThreadPool* pool() const noexcept {
    return private_pool_ ? private_pool_.get() : shared_pool_;
  }

  EngineConfig config_;
  ResultCache cache_;
  std::unique_ptr<sweep::ThreadPool> private_pool_;
  sweep::ThreadPool* shared_pool_ = nullptr;
  sweep::ThreadPool::Stats pool_base_{};

  mutable std::mutex mutex_;  ///< guards stats_
  EngineStats stats_;
};

}  // namespace swapgame::engine
