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
/// first knot throw std::out_of_range.
class SteppedPricePath final : public PricePath {
 public:
  using Knot = std::pair<chain::Hours, double>;

  explicit SteppedPricePath(const std::map<chain::Hours, double>& knots)
      : knots_(knots.begin(), knots.end()) {
    validate();
  }

  /// Knots already in strictly increasing time order, kept as given (the
  /// Monte-Carlo engines build one path per sample this way).
  /// @throws std::invalid_argument if empty, not strictly increasing in
  /// time, or a price is not > 0.
  [[nodiscard]] static SteppedPricePath from_sorted(std::vector<Knot> knots) {
    SteppedPricePath path;
    path.knots_ = std::move(knots);
    path.validate();
    return path;
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
  SteppedPricePath() = default;

  void validate() const {
    if (knots_.empty()) {
      throw std::invalid_argument("SteppedPricePath: need at least one knot");
    }
    for (std::size_t i = 0; i < knots_.size(); ++i) {
      if (!(knots_[i].second > 0.0)) {
        throw std::invalid_argument("SteppedPricePath: prices must be > 0");
      }
      if (i > 0 && !(knots_[i - 1].first < knots_[i].first)) {
        throw std::invalid_argument(
            "SteppedPricePath: knot times must increase strictly");
      }
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
