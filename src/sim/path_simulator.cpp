#include "path_simulator.hpp"

#include <algorithm>
#include <utility>

#include "math/gbm.hpp"

namespace swapgame::sim {

std::vector<chain::Hours> schedule_epochs(const model::Schedule& schedule) {
  std::vector<chain::Hours> times = {schedule.t1, schedule.t2, schedule.t3,
                                     schedule.t4, schedule.t5, schedule.t6,
                                     schedule.t7, schedule.t8};
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

proto::SteppedPricePath sample_epoch_path(const model::SwapParams& params,
                                          const model::Schedule& schedule,
                                          math::Xoshiro256& rng) {
  return sample_epoch_path(params, schedule_epochs(schedule), rng);
}

proto::SteppedPricePath sample_epoch_path(
    const model::SwapParams& params, const std::vector<chain::Hours>& epochs,
    math::Xoshiro256& rng) {
  proto::SteppedPricePath path;
  sample_epoch_path(params, epochs, rng, path);
  return path;
}

void sample_epoch_path(const model::SwapParams& params,
                       const std::vector<chain::Hours>& epochs,
                       math::Xoshiro256& rng, proto::SteppedPricePath& out) {
  out.clear();
  double price = params.p_t0;
  out.append(epochs.front(), price);
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    const double dt = epochs[i] - epochs[i - 1];
    const math::GbmLaw law(params.gbm, price, dt);
    price = law.sample_from_normal(math::normal_inverse_cdf_draw(rng));
    out.append(epochs[i], price);
  }
}

}  // namespace swapgame::sim
