// Price processes observed by agents during a protocol run.
//
// The protocol driver quotes the token-b price (in token-a) to strategies
// at decision times and values final holdings at receipt times.  Tests use
// fixed paths; the Monte-Carlo engine samples GBM paths at the decision
// epochs (src/sim/path_simulator).
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chain/types.hpp"

namespace swapgame::proto {

/// Read-only price curve.
class PricePath {
 public:
  virtual ~PricePath() = default;

  /// Token-b price at absolute simulation time t (hours).
  [[nodiscard]] virtual double price_at(chain::Hours t) const = 0;
};

/// Piecewise-constant path through given (time, price) knots: the price at
/// t is the price of the latest knot at or before t.  Queries before the
/// first knot (every query, on an empty path) throw std::out_of_range.
class SteppedPricePath final : public PricePath {
 public:
  using Knot = std::pair<chain::Hours, double>;

  /// An empty path, to be filled by append().
  SteppedPricePath() = default;

  explicit SteppedPricePath(const std::map<chain::Hours, double>& knots) {
    for (const auto& [t, price] : knots) append(t, price);
    require_knots();
  }

  /// Knots already in strictly increasing time order, kept as given.
  /// @throws std::invalid_argument if empty, not strictly increasing in
  /// time, or a price is not > 0.
  [[nodiscard]] static SteppedPricePath from_sorted(
      const std::vector<Knot>& knots) {
    SteppedPricePath path;
    for (const auto& [t, price] : knots) path.append(t, price);
    path.require_knots();
    return path;
  }

  /// Drops every knot and keeps the buffer: a Monte-Carlo chunk refills
  /// one path per sample (sim::sample_epoch_path).
  void clear() noexcept { knots_.clear(); }

  /// Adds a knot after the last one.
  /// @throws std::invalid_argument if `price` is not > 0 or `t` is not
  /// after the last knot's time.
  void append(chain::Hours t, double price) {
    if (!(price > 0.0)) {
      throw std::invalid_argument("SteppedPricePath: prices must be > 0");
    }
    if (!knots_.empty() && !(knots_.back().first < t)) {
      throw std::invalid_argument(
          "SteppedPricePath: knot times must increase strictly");
    }
    knots_.emplace_back(t, price);
  }

  [[nodiscard]] double price_at(chain::Hours t) const override {
    auto it = std::upper_bound(
        knots_.begin(), knots_.end(), t,
        [](chain::Hours x, const Knot& knot) { return x < knot.first; });
    if (it == knots_.begin()) {
      throw std::out_of_range("SteppedPricePath: query before first knot");
    }
    return std::prev(it)->second;
  }

 private:
  void require_knots() const {
    if (knots_.empty()) {
      throw std::invalid_argument("SteppedPricePath: need at least one knot");
    }
  }

  std::vector<Knot> knots_;  ///< sorted by time, times distinct
};

/// Constant price (degenerate path for unit tests).
class ConstantPricePath final : public PricePath {
 public:
  explicit ConstantPricePath(double price) : price_(price) {
    if (!(price > 0.0)) {
      throw std::invalid_argument("ConstantPricePath: price must be > 0");
    }
  }
  [[nodiscard]] double price_at(chain::Hours) const override { return price_; }

 private:
  double price_;
};

}  // namespace swapgame::proto
