// swapgame: single public façade header.
//
//   #include <swapgame/swapgame.hpp>     (installed tree)
//   #include "swapgame.hpp"              (in-tree, -I src)
//
// Pulls in the supported public surface, one layer per block:
//
//   * model   -- analytic games (basic / collateral / premium / extended),
//                feasible bands, sensitivities, warm-start sweepers;
//   * sim     -- sim::McRunner, the one Monte-Carlo entry point (model
//                skeleton, threshold profiles, full protocol substrate),
//                plus scenario types shared with the engine;
//   * engine  -- engine::RunSpec / BatchEngine: batched cell evaluation
//                with content-addressed caching, whose disk tier also
//                resumes killed batches (docs/ENGINE.md), and the
//                engine-native scenario sweep;
//   * service -- the swapgamed daemon and its client: RunSpec DAG jobs as
//                newline-delimited JSON over a local socket, admission
//                control, per-client fairness and a cache shared across
//                clients (docs/SERVICE.md), with swapgame::Status as the
//                error surface of every boundary;
//   * proto / agents -- single-swap execution on simulated ledgers with
//                pluggable strategies, for callers stepping one swap;
//   * obs     -- structured tracing + metrics sinks accepted by all of the
//                above;
//   * sweep   -- the thread pool / parallel_map the engine schedules on.
//
// Headers below this surface (chain internals, math primitives, solver
// caches) remain includable individually but carry no stability promise;
// new code should start here.  The historical sim free functions
// (run_model_mc & co.) were removed in favor of sim::McRunner -- see
// CHANGES.md and the README migration note.
#pragma once

// Analytic layer.
#include "model/basic_game.hpp"
#include "model/collateral_game.hpp"
#include "model/extended_game.hpp"
#include "model/params.hpp"
#include "model/premium_game.hpp"
#include "model/sensitivity.hpp"
#include "model/solver_cache.hpp"

// Protocol substrate + strategies.
#include "agents/naive.hpp"
#include "agents/strategy.hpp"
#include "proto/swap_protocol.hpp"

// Simulation layer.
#include "sim/mc_runner.hpp"
#include "sim/scenario.hpp"

// Batch engine.
#include "engine/batch_engine.hpp"
#include "engine/run_spec.hpp"
#include "engine/scenario_batch.hpp"

// Service daemon + client (and the Status type every boundary returns).
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "status.hpp"

// Observability + scheduling.
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep.hpp"
