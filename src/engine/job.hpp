// The DAG job: RunSpec cells plus the dependency edges that order them.
//
// One module owns the concept for every surface that runs a job -- the
// offline BatchEngine::run_batch, the swapgamed dispatcher and the
// client library / swapgame_client tool:
//
//   * codec: the `{"cells":[<RunSpec JSON>...],"deps":[[indices]...]}`
//     body of a submit request and of a job file (parse_job /
//     render_job);
//   * validation and schedule: JobSchedule::build checks every
//     dependency index and rejects cycles, then keeps the per-cell unmet
//     counts and dependents that hand out cells as they become ready.
//
// Everything here returns Status; nothing throws for bad input.  The
// engine turns a validation failure into std::invalid_argument with the
// same message the daemon sends in its `rejected` event.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "run_spec.hpp"
#include "status.hpp"

namespace swapgame::obs::json {
class Value;
}

namespace swapgame::engine {

/// One DAG node: `deps` are indices into the same batch that must complete
/// first.  Cells are independent computations, so dependencies express
/// scheduling order (e.g. cheap-first), not data flow.
struct BatchNode {
  RunSpec spec;
  std::vector<std::size_t> deps;
};

/// Reads the `cells` and `deps` members of `root` into `*nodes`; other
/// members are the caller's (the daemon checks its request envelope).
/// `cells` must be a non-empty array of RunSpec objects; `deps`, when
/// present, an array with one array of unsigned integer indices per cell.
/// Spec failures keep the codec's code (kInvalidSpec or
/// kUnsupportedVersion) under a "cell <i>: " prefix; every other failure
/// is kInvalidSpec.  Indices are not range-checked here (that is
/// JobSchedule::build's job).  On failure *nodes is unspecified.
[[nodiscard]] Status parse_job(const obs::json::Value& root,
                               std::vector<BatchNode>* nodes);

/// The members parse_job reads, without the enclosing braces:
/// `"cells":[...]`, then `,"deps":[...]` only when some node has a
/// dependency.
[[nodiscard]] std::string render_job(const std::vector<BatchNode>& nodes);

/// Ready-count schedule of one validated job.  Not thread-safe: callers
/// that complete cells from several threads hold their own lock.
class JobSchedule {
 public:
  /// Validates the nodes' dependencies -- every index in range, no
  /// cycle -- and on success builds their schedule into `*out`.  A
  /// failure is kInvalidSpec naming the offending cell, and leaves *out
  /// untouched.  On success `*order` (if given) receives a topological
  /// order: the cells without dependencies in index order, then each
  /// cell as its last dependency is taken from the front.
  [[nodiscard]] static Status build(const std::vector<BatchNode>& nodes,
                                    JobSchedule* out,
                                    std::vector<std::size_t>* order = nullptr);

  /// Adds the edge `dep` -> `cell` before any cell has completed.  `dep`
  /// must precede `cell` in build()'s order, so the job stays acyclic.
  void add_dep(std::size_t cell, std::size_t dep);

  /// The cells with no unmet dependency, in index order: the initial
  /// ready set, before any complete().
  [[nodiscard]] std::vector<std::size_t> ready() const;

  /// Marks `cell` finished and returns the cells that became ready, in
  /// the order their edges from `cell` were added.
  [[nodiscard]] std::vector<std::size_t> complete(std::size_t cell);

 private:
  std::vector<std::size_t> unmet_;  ///< per cell: dependencies not finished
  std::vector<std::vector<std::size_t>> dependents_;  ///< per cell
};

}  // namespace swapgame::engine
