// GBM path sampling at the swap's decision/receipt epochs.
//
// The protocol only observes prices at the discrete times of the idealized
// schedule (Eq. 13), so a path sample is the exact GBM skeleton over those
// epochs: increments are lognormal with the correct horizon per step, and
// the resulting SteppedPricePath holds each sampled price until the next
// epoch.
#pragma once

#include <vector>

#include "math/rng.hpp"
#include "model/params.hpp"
#include "model/timeline.hpp"
#include "proto/price_path.hpp"

namespace swapgame::sim {

/// Samples one price path through the schedule's epochs
/// {t1, t2, t3, t4, t5, t6, t7, t8} (duplicates collapsed), starting from
/// params.p_t0 at t1.  Consumes one normal deviate per distinct epoch gap.
[[nodiscard]] proto::SteppedPricePath sample_epoch_path(
    const model::SwapParams& params, const model::Schedule& schedule,
    math::Xoshiro256& rng);

/// The same path through epochs computed once by schedule_epochs (a
/// Monte-Carlo cell samples many paths through one schedule).
[[nodiscard]] proto::SteppedPricePath sample_epoch_path(
    const model::SwapParams& params, const std::vector<chain::Hours>& epochs,
    math::Xoshiro256& rng);

/// The same path written into `out`, whose knot buffer is reused (a
/// protocol Monte-Carlo chunk keeps one path for all its samples).
void sample_epoch_path(const model::SwapParams& params,
                       const std::vector<chain::Hours>& epochs,
                       math::Xoshiro256& rng, proto::SteppedPricePath& out);

/// The distinct, sorted epoch times of a schedule (t1 first).
[[nodiscard]] std::vector<chain::Hours> schedule_epochs(
    const model::Schedule& schedule);

}  // namespace swapgame::sim
