// BatchEngine wiring for the bench binaries (docs/ENGINE.md).
//
// A migrated bench builds its cells as engine::RunSpec values and runs
// them through one bench-wide BatchEngine.  One environment variable
// opts in to persistence (unset by default, so a plain bench run is
// self-contained and leaves nothing behind):
//
//   SWAPGAME_CACHE_DIR  on-disk result cache root; each bench uses the
//                       subdirectory <root>/<slug> so benches never
//                       collide.  A second run in the same root serves
//                       its cells from the cache -- byte-identical output,
//                       ~no MC work -- and a killed run rerun there
//                       resumes: only the cells it never finished are
//                       evaluated (the CI cache-correctness job asserts
//                       all three).
//
// report_engine_metrics() lands the engine counters in BENCH_<slug>.json.
// These engine_* metrics are intentionally cache-dependent (that is their
// point: engine_mc_samples_run collapses on a warm cache) and are absent
// from the committed baselines, so tools/bench_gate.py -- which gates
// only baseline-present metrics -- ignores them.
#pragma once

#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "engine/batch_engine.hpp"

namespace swapgame::bench {

/// Engine configuration for the bench named `slug`: shared pool (honors
/// SWAPGAME_THREADS), disk cache only when SWAPGAME_CACHE_DIR is set.
inline engine::EngineConfig engine_config_from_env(const std::string& slug) {
  engine::EngineConfig config;
  if (const char* dir = std::getenv("SWAPGAME_CACHE_DIR");
      dir != nullptr && dir[0] != '\0') {
    config.cache_dir = std::string(dir) + "/" + slug;
  }
  return config;
}

/// Engine telemetry as bench metrics (BENCH_<slug>.json "metrics" object).
inline void report_engine_metrics(Report& report,
                                  const engine::BatchEngine& engine) {
  const engine::EngineStats s = engine.stats();
  report.metric("engine_cells_total", static_cast<double>(s.cells_total));
  report.metric("engine_cells_run", static_cast<double>(s.cells_run));
  report.metric("engine_cache_hits", static_cast<double>(s.cache_hits()));
  report.metric("engine_mc_samples_run",
                static_cast<double>(s.mc_samples_run));
  report.metric("engine_mc_samples_cached",
                static_cast<double>(s.mc_samples_cached));
}

}  // namespace swapgame::bench
