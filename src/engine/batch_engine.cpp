#include "batch_engine.hpp"

#include <condition_variable>
#include <map>
#include <stdexcept>
#include <utility>

#include "sweep/sweep.hpp"

namespace swapgame::engine {

const char* to_string(CellSource source) noexcept {
  switch (source) {
    case CellSource::kEvaluated:
      return "evaluated";
    case CellSource::kMemory:
      return "memory";
    case CellSource::kDisk:
      return "disk";
  }
  return "?";
}

struct BatchEngine::BatchState {
  const std::vector<BatchNode>* nodes = nullptr;
  std::vector<std::string> hashes;
  JobSchedule schedule;  // the nodes' deps plus the dedup edges
  std::vector<RunResult> results;
  bool parallel = false;

  std::mutex m;
  std::condition_variable done_cv;
  std::size_t completed = 0;
  std::exception_ptr error;
};

BatchEngine::BatchEngine(EngineConfig config)
    : config_(std::move(config)),
      cache_(config_.memory_capacity, config_.cache_dir) {
  if (config_.threads == 1) {
    // Serial mode: no pool at all.
  } else if (config_.threads == 0) {
    shared_pool_ = &sweep::shared_pool();
    pool_base_ = shared_pool_->stats();
  } else {
    private_pool_ = std::make_unique<sweep::ThreadPool>(config_.threads);
    pool_base_ = private_pool_->stats();
  }
}

BatchEngine::~BatchEngine() = default;

RunResult BatchEngine::run(const RunSpec& spec) {
  return run_batch(std::vector<RunSpec>{spec}).front();
}

RunResult BatchEngine::run(const RunSpec& spec, CellSource* source) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cells_total;
  }
  CellSource ignored = CellSource::kEvaluated;
  return resolve(spec, spec.hash(), source != nullptr ? *source : ignored);
}

RunResult BatchEngine::resolve(const RunSpec& spec, const std::string& hash,
                               CellSource& source) {
  bool from_disk = false;
  if (std::optional<RunResult> cached = cache_.get(hash, &from_disk)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.mc_samples_cached += cached->samples;
    }
    source = from_disk ? CellSource::kDisk : CellSource::kMemory;
    return std::move(*cached);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cells_run;
  }
  source = CellSource::kEvaluated;
  RunResult result = evaluate_cell(spec);
  if (result.complete) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.mc_samples_run += result.samples;
    }
    cache_.put(hash, result);
  }
  return result;
}

std::vector<RunResult> BatchEngine::run_batch(
    const std::vector<RunSpec>& specs) {
  std::vector<BatchNode> nodes;
  nodes.reserve(specs.size());
  for (const RunSpec& spec : specs) nodes.push_back(BatchNode{spec, {}});
  return run_batch(nodes);
}

std::vector<RunResult> BatchEngine::run_batch(
    const std::vector<BatchNode>& nodes) {
  const std::size_t n = nodes.size();
  BatchState state;
  state.nodes = &nodes;
  state.results.resize(n);
  std::vector<std::size_t> order;
  const Status valid = JobSchedule::build(nodes, &state.schedule, &order);
  if (!valid.is_ok()) throw std::invalid_argument(valid.message());

  // Hash every spec up front; a duplicate spec gains a dependency on its
  // first occurrence in dependency order (so the edge points forward and
  // the DAG stays acyclic), runs after that primary and is served from
  // the cache instead of being re-evaluated.
  state.hashes.reserve(n);
  for (const BatchNode& node : nodes) state.hashes.push_back(node.spec.hash());
  std::map<std::string, std::size_t> primary;
  for (const std::size_t i : order) {
    const auto [it, inserted] = primary.emplace(state.hashes[i], i);
    if (!inserted) state.schedule.add_dep(i, it->second);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.cells_total += n;
  }

  sweep::ThreadPool* active_pool = pool();
  // Nested batches (a cell spawning a batch) must not block a pool worker
  // on done_cv while the cells it waits for sit behind it in the queue.
  state.parallel =
      active_pool != nullptr && !active_pool->is_worker_thread() && n > 1;

  if (!state.parallel) {
    // Serial: drain the ready FIFO inline, a Kahn order of the DAG.
    std::vector<std::size_t> fifo = state.schedule.ready();
    for (std::size_t head = 0; head < fifo.size(); ++head) {
      const std::size_t i = fifo[head];
      process_cell(state, i);
      for (const std::size_t d : state.schedule.complete(i)) {
        fifo.push_back(d);
      }
    }
  } else {
    std::vector<std::function<void()>> ready;
    for (const std::size_t i : state.schedule.ready()) {
      ready.push_back([this, &state, i] { process_cell(state, i); });
    }
    active_pool->submit_bulk(std::move(ready));
    std::unique_lock<std::mutex> lock(state.m);
    state.done_cv.wait(lock, [&state, n] { return state.completed == n; });
  }

  // Metrics publication for this batch.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shared_pool_ != nullptr || private_pool_ != nullptr) {
      const sweep::ThreadPool::Stats now = pool()->stats();
      stats_.pool_tasks = now.executed - pool_base_.executed;
      stats_.pool_max_queue_depth = now.max_queue_depth;
    }
  }
  if (config_.metrics != nullptr) {
    const EngineStats s = stats();
    obs::MetricsRegistry& reg = *config_.metrics;
    const auto set_counter = [&reg](std::string_view name,
                                    std::uint64_t target) {
      obs::Counter& c = reg.counter(name);
      const std::uint64_t cur = c.value();
      if (target > cur) c.inc(target - cur);
    };
    set_counter("engine.cells_total", s.cells_total);
    set_counter("engine.cells_run", s.cells_run);
    set_counter("engine.cache.memory_hits", s.memory_hits);
    set_counter("engine.cache.disk_hits", s.disk_hits);
    set_counter("engine.mc.samples_run", s.mc_samples_run);
    set_counter("engine.mc.samples_cached", s.mc_samples_cached);
    set_counter("engine.entries_rejected", s.entries_rejected);
    set_counter("engine.pool.tasks", s.pool_tasks);
    reg.histogram("engine.pool.queue_depth", 0.0, 4096.0, 64)
        .observe(static_cast<double>(s.pool_max_queue_depth));
  }

  if (state.error) std::rethrow_exception(state.error);
  return std::move(state.results);
}

void BatchEngine::process_cell(BatchState& state, std::size_t index) {
  RunResult result;
  CellSource source = CellSource::kEvaluated;
  try {
    result = resolve((*state.nodes)[index].spec, state.hashes[index], source);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(state.m);
      if (!state.error) state.error = std::current_exception();
    }
    result.complete = false;
  }
  finish_cell(state, index, std::move(result));
}

void BatchEngine::finish_cell(BatchState& state, std::size_t index,
                              RunResult result) {
  std::vector<std::size_t> now_ready;
  // Read under the lock: once the last cell completes, run_batch may return
  // and destroy `state` as soon as state.m is released.  A non-empty
  // now_ready means the batch is unfinished, so `state` outlives the submit.
  bool parallel = false;
  {
    std::lock_guard<std::mutex> lock(state.m);
    state.results[index] = std::move(result);
    ++state.completed;
    parallel = state.parallel;
    if (parallel) {
      now_ready = state.schedule.complete(index);
      if (state.completed == state.results.size()) {
        state.done_cv.notify_all();
      }
    }
  }
  if (parallel && !now_ready.empty()) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(now_ready.size());
    for (const std::size_t d : now_ready) {
      tasks.push_back([this, &state, d] { process_cell(state, d); });
    }
    pool()->submit_bulk(std::move(tasks));
  }
}

EngineStats BatchEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats s = stats_;
  s.memory_hits = cache_.memory_hits();
  s.disk_hits = cache_.disk_hits();
  s.entries_rejected = cache_.disk_rejected();
  return s;
}

}  // namespace swapgame::engine
