#include "multihop_protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "agents/naive.hpp"
#include "swap_machine.hpp"

namespace swapgame::proto {

MultihopResult run_multihop_swap(const MultihopSetup& setup,
                                 const PricePath& path) {
  const std::size_t n = setup.parties.size();
  if (n < 2) {
    throw std::invalid_argument("run_multihop_swap: need >= 2 parties");
  }
  if (!(setup.tau > 0.0) || !(setup.eps > 0.0) || !(setup.eps < setup.tau)) {
    throw std::invalid_argument(
        "run_multihop_swap: need 0 < eps < tau (Eq. 3 per chain)");
  }
  if (!(setup.safety_margin >= 0.0)) {
    throw std::invalid_argument(
        "run_multihop_swap: safety_margin must be >= 0");
  }
  static agents::HonestStrategy honest;  // for parties without a strategy
  std::vector<SwapParty> parties;
  std::vector<SwapLeg> legs;
  std::vector<LegChain> chains;
  for (std::size_t i = 0; i < n; ++i) {
    const HopParty& hop = setup.parties[i];
    if (!(hop.amount > 0.0)) {
      throw std::invalid_argument("run_multihop_swap: amounts must be > 0");
    }
    parties.push_back(
        {{hop.name}, hop.strategy ? hop.strategy : &honest, nullptr});
    // Herlihy's staircase: leg i is claimed by the (n-1-i)-th claim of the
    // backward wave; provision for that claim's confirmation plus margin.
    const double cycle = static_cast<double>(n);
    const double claim_index = cycle - 1.0 - static_cast<double>(i);
    const double expiry = cycle * setup.tau + claim_index * setup.eps +
                          setup.tau + setup.safety_margin;
    legs.push_back({static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>((i + 1) % n), hop.amount,
                    expiry});
    chains.push_back(
        {{chain::ChainId::kChainA, setup.tau, setup.eps}, hop.amount, 0.0});
  }
  // The run environment: no faults, auditing or tracing; decision contexts
  // carry no agreed rate.  Step lines go straight into the result.
  MultihopResult result;
  SwapSetup env;
  env.audit = false;
  env.audit_log = &result.audit;
  DirectRun run;
  run.reset(
      {.legs = legs, .parties = parties, .secret_seed = setup.secret_seed},
      chains, env, path);
  run.run();
  const SwapMachine& machine = run.machine();

  result.outcome = machine.outcome();
  result.conservation_ok = run.conservation_ok();
  result.paid.resize(n);
  result.received.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (machine.deployed(i)) ++result.locks_deployed;
    const chain::HtlcContract* c = machine.contract(i);
    if (c != nullptr && c->state == chain::HtlcState::kClaimed) {
      ++result.legs_claimed;
      result.completion_time = std::max(result.completion_time, c->settled_at);
    }
    // P_i pays on leg i and is paid on leg i-1.
    result.paid[i] = setup.parties[i].amount - run.balance(i, i);
    result.received[i] = run.balance((i + n - 1) % n, i);
  }
  return result;
}

}  // namespace swapgame::proto
