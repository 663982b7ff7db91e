// Scenario sweeps: run grids of (parameters, rate, mechanism) cells through
// the analytic solver and the protocol-level Monte Carlo, collecting rows
// for analysis.  Used by benches and examples; exposed publicly because a
// downstream user evaluating deployment parameters wants exactly this.
#pragma once

#include <string>
#include <vector>

#include "model/params.hpp"
#include "monte_carlo.hpp"

namespace swapgame::sim {

/// Which disciplinary mechanism a scenario cell uses.
enum class Mechanism : std::uint8_t {
  kNone,        ///< plain HTLC (Section III)
  kCollateral,  ///< both-sided collateral with oracle (Section IV)
  kPremium,     ///< initiator-only premium escrow (Han et al., Section II-C)
};

[[nodiscard]] const char* to_string(Mechanism mechanism) noexcept;

/// One sweep cell.
struct ScenarioPoint {
  std::string label;
  model::SwapParams params;
  double p_star = 2.0;
  Mechanism mechanism = Mechanism::kNone;
  double deposit = 0.0;  ///< Q or pr depending on mechanism
  /// Fault environment for the protocol runs of this cell (default: none,
  /// i.e. the paper's assumption-1 substrate).  The analytic column always
  /// reflects the fault-free model.
  proto::SwapFaults faults{};
};

/// Per-cell results.
struct ScenarioResult {
  ScenarioPoint point;
  double analytic_sr = 0.0;      ///< model success rate for the mechanism
  double protocol_sr = 0.0;      ///< Monte-Carlo estimate on the substrate
  double protocol_sr_ci_lo = 0.0;
  double protocol_sr_ci_hi = 0.0;
  double alice_utility = 0.0;    ///< mean realized utility (initiated runs)
  double bob_utility = 0.0;
  bool initiated = false;        ///< whether the swap starts at all
  /// Substrate health over the cell's Monte-Carlo runs (see McEstimate).
  std::uint64_t conservation_failures = 0;
  std::uint64_t invariant_failures = 0;
  /// Protocol samples the cell actually ran (adaptive stopping may use
  /// fewer than the budget).
  std::uint64_t samples = 0;
};

/// A tiny CSV accumulator for sweep output (header + rows, rendered with
/// to_string()); keeps benches/examples free of formatting noise.
class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> columns);

  /// Adds a row; must match the column count.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace swapgame::sim
