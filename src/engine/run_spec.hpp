// RunSpec: the canonical, hashable description of ONE evaluation cell.
//
// A cell is the unit of work the BatchEngine schedules and caches: a (parameters, grid coordinates, evaluator kind, sample
// budget, seed, fault/trace config) tuple whose result is a pure function
// of the spec -- every evaluator below is deterministic given its spec
// (the MC engines are bit-identical across thread counts, PR 1/4).  That
// purity is what makes content-addressed caching sound: two specs with
// equal canonical strings have equal results, bit for bit.
//
// Canonical form and hashing (docs/ENGINE.md):
//   * canonical_string() renders every SEMANTIC field as one key=value
//     line, doubles as "%.17g" (exact round-trip), in a fixed order, under
//     a leading schema-version line.  Execution details that cannot change
//     the result -- thread count, trace/metrics sinks -- are excluded, as
//     is the presentational `label`.
//   * hash() is the SHA-256 hex of that string.  Bumping
//     kRunSpecSchemaVersion (required whenever evaluator semantics or the
//     canonical format change) changes every hash, so stale cache entries
//     are unreachable rather than wrong.
//
// RunResult is the serializable result envelope: an ordered list of named
// scalars plus the optional trace JSONL of traced samples.  to_entry() /
// parse_entry() round-trip it through one JSONL line (the format shared by
// the on-disk cache and the swapgamed wire protocol), preserving doubles
// exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "market/population/population_sim.hpp"
#include "sim/mc_runner.hpp"
#include "sim/scenario.hpp"
#include "status.hpp"

namespace swapgame::obs::json {
class Value;
}

namespace swapgame::engine {

/// Version of the canonical-spec format AND of the cache-entry schema.
/// Bump on any change to evaluator semantics, canonical_string() layout,
/// or the entry format; old cache entries are then rejected instead of
/// being misread.
///
/// v2: lane-interleaved SIMD draw order in the model MC engines (new
/// normal draws for a given seed) and the bob_strategy line in the
/// canonical form.
/// v3: the market_sim cell kind and its population.* block in the
/// canonical form.
/// v4: the shards and compaction.* lines of the population block (ledger
/// retirement + sharded event queues) and the retirement counters in
/// market_sim results; Neumaier-compensated MarketStats accumulation
/// re-keys lockup sums at the ulp level.
/// v5: the epochized parallel population engine (population.workers line).
/// The market_sim evaluator now quantizes decisions and the GBM to
/// block-interval epochs and merges cross-session effects at barriers, so
/// every market_sim result changes relative to v4 regardless of the
/// worker count -- results remain bit-identical across workers/shards
/// WITHIN v5.
/// v6: the population block's `shards` line is gone (event-queue storage
/// shards were deleted).  Only the canonical form changes -- the shard
/// count never affected execution order -- so no result differs from v5.
/// v7: the population block's `decision_tick` line is gone.  market_sim
/// decisions read each type pair's scale-free rule at the exact P_t0
/// instead of a t1 cache at P_t0 rounded to decision_tick, and
/// mean_predicted_sr, alice_t1_cont and the threshold_games /
/// t1_evaluations counters are redefined, so market_sim results change.
inline constexpr int kRunSpecSchemaVersion = 7;

/// What computation a cell performs.
enum class CellKind : std::uint8_t {
  /// Analytic solve at one point: Basic/Collateral/PremiumGame success
  /// rate + t1 continuation values.  No sampling.
  kAnalyticSr,
  /// Analytic SR over a P* grid with a warm-chained BasicGameSweeper --
  /// the fig6 panel primitive.  Grid bounds default to the feasible band.
  kSrGrid,
  /// Central-difference sensitivity report (model/sensitivity.hpp).
  kSensitivity,
  /// X9 jitter-grid cell: honest protocol runs under confirmation jitter
  /// with CI-targeted stopping on the completion rate.
  kJitterCell,
  /// One scenario-sweep cell (sim::detail::scenario_cell).
  kScenario,
  /// One Monte-Carlo run through sim::McRunner (model/profile/protocol).
  kMc,
  /// One population-scale market simulation (market::PopulationSim): a
  /// Poisson order stream settled as concurrent HTLC sessions on two
  /// shared ledgers behind per-chain fee markets.
  kMarketSim,
};
[[nodiscard]] const char* to_string(CellKind kind) noexcept;

/// One evaluation cell.  `mc` carries the parameter point, seeds, faults
/// and sample budget for every kind; the grid/scenario fields only apply
/// to their kinds but are always serialized (fixed layout).
struct RunSpec {
  CellKind kind = CellKind::kMc;
  /// Display label for logs/progress; EXCLUDED from the canonical string
  /// (purely presentational, must not split otherwise-identical cells).
  std::string label;

  /// Parameter point, evaluator, strategy, seeds, faults, budget.
  sim::McRunSpec mc;

  // --- kSrGrid ---------------------------------------------------------
  int grid_count = 0;      ///< points are i = 0 .. grid_count (inclusive)
  int grid_denom = 1;      ///< p(i) = lo + (hi-lo) * (i + offset) / denom
  double grid_offset = 0.0;
  /// Explicit grid bounds; NaN = use model::cached_feasible_band(params).
  double grid_lo = std::numeric_limits<double>::quiet_NaN();
  double grid_hi = std::numeric_limits<double>::quiet_NaN();

  // --- kScenario -------------------------------------------------------
  sim::Mechanism mechanism = sim::Mechanism::kNone;
  double deposit = 0.0;

  // --- kMarketSim ------------------------------------------------------
  /// Full workload description; every field lands in the canonical string
  /// (a population run is a pure function of this config).
  market::PopulationConfig population{};

  /// The versioned canonical key=value rendering (see file comment).
  [[nodiscard]] std::string canonical_string() const;
  /// SHA-256 hex digest of canonical_string() -- the cache address.
  [[nodiscard]] std::string hash() const;

  // --- public JSON codec (docs/SERVICE.md) -----------------------------
  // One flat, schema-versioned object mirroring the canonical form key
  // for key: {"v":<kRunSpecSchemaVersion>,"label":"...","kind":"mc",...}.
  // Values use the exact canonical renderings (%.17g doubles, quoted
  // "nan"/"inf"/"-inf" markers, tokenized composites), so
  // from_json(spec.to_json()) reproduces canonical_string() -- and hence
  // the content hash -- byte for byte.  `label` is carried for display
  // but stays excluded from the canonical form.  This is the codec the
  // swapgamed wire protocol submits specs through.

  /// Serializes this spec as one JSON object (one line, no newline).
  [[nodiscard]] std::string to_json() const;
  /// Parses a to_json() object.  Rejects any schema version other than
  /// kRunSpecSchemaVersion (kUnsupportedVersion) and any unknown, missing
  /// mistyped or malformed key (kInvalidSpec), each with a message naming
  /// the offending key/token.  On failure *out is unspecified.
  [[nodiscard]] static Status from_json(std::string_view json, RunSpec* out);
  /// Same, from an already-parsed JSON value (the daemon parses whole
  /// request lines and hands each cell object here).
  [[nodiscard]] static Status from_json(const obs::json::Value& value,
                                        RunSpec* out);
};

/// Serializable result of one cell.
struct RunResult {
  /// False when evaluate_cell has no evaluator for the cell kind, or when
  /// a batch cell's evaluation threw; incomplete results are never cached.
  bool complete = true;
  std::uint64_t samples = 0;  ///< MC samples evaluated (0 for analytic)
  std::uint64_t rounds = 0;   ///< adaptive rounds issued (model MC)
  /// Named scalars in evaluator-defined order (order is meaningful for
  /// grid/sensitivity kinds and preserved by the entry round-trip).
  std::vector<std::pair<std::string, double>> values;
  /// Trace JSONL of traced samples ("" when tracing was off).  Stored in
  /// the result so warm-cache reruns re-export byte-identical TRACE files.
  std::string trace;

  void set(std::string_view name, double value);
  [[nodiscard]] bool has(std::string_view name) const noexcept;
  /// Value by name; throws std::out_of_range if absent.
  [[nodiscard]] double at(std::string_view name) const;

  /// One JSONL line binding this result to the spec hash that produced it.
  /// This is THE result codec: the on-disk cache and the swapgamed wire
  /// protocol both emit exactly this object shape, and both parse it
  /// through from_json() below -- one writer, one reader.
  [[nodiscard]] std::string to_entry(const std::string& spec_hash) const;
  /// Parses a to_entry() line into (spec_hash, result).  Returns nullopt
  /// for malformed lines and for entries with a different schema version
  /// (stale caches are ignored, not misread).  Thin wrapper over
  /// from_json() for callers that treat every failure as "entry absent".
  [[nodiscard]] static std::optional<std::pair<std::string, RunResult>>
  parse_entry(std::string_view line);
  /// Structured parse of a to_entry() object with distinct failure codes:
  /// kUnsupportedVersion for a stale schema, kCacheCorrupt for anything
  /// malformed (truncated entry, bad value shape, unknown key).
  [[nodiscard]] static Status from_json(const obs::json::Value& value,
                                        std::string* spec_hash,
                                        RunResult* out);
};

/// Evaluates one cell (pure function of the spec; thread-safe).  The MC
/// budget inside spec.mc.config is honored; spec.mc.config.threads is
/// forced to 1 because the engine parallelizes ACROSS cells (one cell =
/// one task on the pool).
[[nodiscard]] RunResult evaluate_cell(const RunSpec& spec);

}  // namespace swapgame::engine
