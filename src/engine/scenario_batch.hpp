// Scenario sweeps through the BatchEngine.
//
// The engine-native replacement for sim::run_scenarios: each ScenarioPoint
// becomes one kScenario RunSpec, so a sweep runs its cells in parallel and
// picks up caching (and resumption through the disk tier) for free.  Results are
// numerically identical to the serial wrapper (each cell routes through
// the same sim::detail::scenario_cell).
#pragma once

#include <vector>

#include "batch_engine.hpp"
#include "run_spec.hpp"
#include "sim/scenario.hpp"

namespace swapgame::engine {

/// The kScenario RunSpec describing one ScenarioPoint under `config`.
[[nodiscard]] RunSpec scenario_spec(const sim::ScenarioPoint& point,
                                    const sim::McConfig& config);

/// Rebuilds the sweep-facing row from a kScenario cell's RunResult.
[[nodiscard]] sim::ScenarioResult unpack_scenario(
    const sim::ScenarioPoint& point, const RunResult& result);

/// Runs every cell on an existing engine (callers wanting cache /
/// metrics wiring configure the engine themselves).
[[nodiscard]] std::vector<sim::ScenarioResult> run_scenarios(
    BatchEngine& engine, const std::vector<sim::ScenarioPoint>& points,
    const sim::McConfig& config);

/// Convenience: runs on a throwaway engine with the given configuration
/// (default: shared pool, memory cache only).
[[nodiscard]] std::vector<sim::ScenarioResult> run_scenarios(
    const std::vector<sim::ScenarioPoint>& points,
    const sim::McConfig& config, const EngineConfig& engine_config = {});

}  // namespace swapgame::engine
