// The ONE enumeration of RunSpec's semantic fields.
//
// Three serializers walk a RunSpec: the canonical key=value renderer that
// backs content hashing (run_spec.cpp), the public JSON writer and the
// JSON reader of the wire codec (spec_json.cpp).  Before this header each
// would have been a hand-maintained parallel list -- one forgotten line
// and a spec field silently stops being hashed, or the daemon accepts a
// spec it then mis-executes.  visit_spec_fields() is the single field
// table: every serializer is a visitor over the same traversal, so a new
// RunSpec field added here is automatically hashed, emitted and parsed
// (and the key-set equality test in tests/test_spec_json.cpp fails if the
// traversal and the canonical form ever diverge).
//
// Visitor concept (duck-typed; see run_spec.cpp / spec_json.cpp):
//   void num(std::string_view key, double& x);
//   void u64(std::string_view key, std::uint64_t& x);
//   void i32(std::string_view key, int& x);
//   void b01(std::string_view key, bool& x);          // serialized 1/0
//   void sz (std::string_view key, std::size_t& x);   // serialized as u64
//   void token(std::string_view key, Get get, Set set);
//     // Get: () -> std::string        (current encoded value)
//     // Set: (std::string_view) -> Status  (decode + assign)
// Readers call the setters; writers call the getters.  Both directions
// share the tokenized composite encodings (enum names, `lo:hi;` window
// lists, `alpha:r:weight;` trader types) defined in spec_codec.hpp.
//
// ORDER IS SEMANTIC: the canonical string's byte layout -- and therefore
// every content hash -- is the visit order below.  Reordering or renaming
// is a schema change and requires a kRunSpecSchemaVersion bump.
#pragma once

#include <string>
#include <string_view>

#include "run_spec.hpp"
#include "spec_codec.hpp"

namespace swapgame::engine::detail {

/// The per-chain fault block, visited with a key prefix (matches the
/// historical put_fault_model layout byte-for-byte).
template <class V>
void visit_fault_model(V& v, std::string_view prefix, chain::FaultModel& m) {
  const std::string p(prefix);
  v.num(p + ".drop_prob", m.drop_prob);
  v.num(p + ".extra_delay_prob", m.extra_delay_prob);
  v.num(p + ".extra_delay_max", m.extra_delay_max);
  v.token(
      p + ".censorship", [&m] { return encode_windows(m.censorship); },
      [&m](std::string_view t) { return parse_windows(t, &m.censorship); });
  v.token(
      p + ".halts", [&m] { return encode_windows(m.halts); },
      [&m](std::string_view t) { return parse_windows(t, &m.halts); });
}

template <class V>
void visit_spec_fields(RunSpec& spec, V& v) {
  v.token(
      "kind", [&spec] { return std::string(to_string(spec.kind)); },
      [&spec](std::string_view t) { return parse_cell_kind(t, &spec.kind); });

  // Parameter point (model/params.hpp).
  model::SwapParams& p = spec.mc.params;
  v.num("alice.alpha", p.alice.alpha);
  v.num("alice.r", p.alice.r);
  v.num("bob.alpha", p.bob.alpha);
  v.num("bob.r", p.bob.r);
  v.num("tau_a", p.tau_a);
  v.num("tau_b", p.tau_b);
  v.num("eps_b", p.eps_b);
  v.num("p_t0", p.p_t0);
  v.num("gbm.mu", p.gbm.mu);
  v.num("gbm.sigma", p.gbm.sigma);

  // Evaluation point / mechanism terms.
  v.token(
      "evaluator",
      [&spec] { return std::string(sim::to_string(spec.mc.evaluator)); },
      [&spec](std::string_view t) {
        return parse_evaluator(t, &spec.mc.evaluator);
      });
  v.num("p_star", spec.mc.p_star);
  v.num("collateral", spec.mc.collateral);
  v.num("premium", spec.mc.premium);
  v.num("profile.alice_cutoff", spec.mc.profile.alice_cutoff);
  v.token(
      "profile.bob_region",
      [&spec] { return encode_interval_set(spec.mc.profile.bob_region); },
      [&spec](std::string_view t) {
        return parse_interval_set(t, &spec.mc.profile.bob_region);
      });

  // Protocol substrate.
  v.token(
      "strategy",
      [&spec] { return std::string(sim::to_string(spec.mc.strategy)); },
      [&spec](std::string_view t) {
        return parse_strategy(t, &spec.mc.strategy);
      });
  v.token(
      "bob_strategy",
      [&spec] {
        return std::string(spec.mc.bob_strategy
                               ? sim::to_string(*spec.mc.bob_strategy)
                               : "inherit");
      },
      [&spec](std::string_view t) {
        return parse_bob_strategy(t, &spec.mc.bob_strategy);
      });
  v.num("alice_extra_token_a", spec.mc.alice_extra_token_a);
  v.num("bob_extra_token_a", spec.mc.bob_extra_token_a);
  v.u64("secret_seed", spec.mc.secret_seed);
  v.num("confirmation_jitter_a", spec.mc.confirmation_jitter_a);
  v.num("confirmation_jitter_b", spec.mc.confirmation_jitter_b);
  v.num("expiry_margin", spec.mc.expiry_margin);
  v.u64("latency_seed", spec.mc.latency_seed);
  visit_fault_model(v, "faults.chain_a", spec.mc.faults.chain_a);
  visit_fault_model(v, "faults.chain_b", spec.mc.faults.chain_b);
  v.token(
      "faults.alice_offline",
      [&spec] { return encode_windows(spec.mc.faults.alice_offline); },
      [&spec](std::string_view t) {
        return parse_windows(t, &spec.mc.faults.alice_offline);
      });
  v.token(
      "faults.bob_offline",
      [&spec] { return encode_windows(spec.mc.faults.bob_offline); },
      [&spec](std::string_view t) {
        return parse_windows(t, &spec.mc.faults.bob_offline);
      });
  v.u64("faults.seed", spec.mc.faults.seed);
  v.b01("audit", spec.mc.audit);

  // Sample budget + estimator config (threads and the trace/metrics sinks
  // are execution details -- they cannot change the result -- and are
  // deliberately NOT part of the traversal; trace_stride IS, because it
  // selects which samples produce the stored trace).
  sim::McConfig& c = spec.mc.config;
  v.sz("config.samples", c.samples);
  v.u64("config.seed", c.seed);
  v.num("config.target_half_width", c.target_half_width);
  v.num("config.ci_confidence", c.ci_confidence);
  v.sz("config.min_samples", c.min_samples);
  v.b01("config.antithetic", c.antithetic);
  v.b01("config.control_variate", c.control_variate);
  v.sz("config.trace_stride", c.trace_stride);

  // Grid coordinates (kSrGrid) and scenario terms (kScenario).
  v.i32("grid.count", spec.grid_count);
  v.i32("grid.denom", spec.grid_denom);
  v.num("grid.offset", spec.grid_offset);
  v.num("grid.lo", spec.grid_lo);
  v.num("grid.hi", spec.grid_hi);
  v.token(
      "mechanism",
      [&spec] { return std::string(sim::to_string(spec.mechanism)); },
      [&spec](std::string_view t) {
        return parse_mechanism(t, &spec.mechanism);
      });
  v.num("deposit", spec.deposit);

  // Population workload (kMarketSim).  Trader types serialize as
  // alpha:r:weight triples so the type mix is part of the cell address.
  market::PopulationConfig& pop = spec.population;
  v.u64("population.sessions", pop.sessions);
  v.num("population.arrival_rate", pop.arrival_rate);
  v.num("population.limit_spread", pop.limit_spread);
  v.num("population.tick", pop.tick);
  v.num("population.cancel_after", pop.cancel_after);
  v.num("population.p0", pop.p0);
  v.num("population.gbm.mu", pop.gbm.mu);
  v.num("population.gbm.sigma", pop.gbm.sigma);
  v.num("population.impact", pop.impact);
  v.num("population.tau_a", pop.tau_a);
  v.num("population.tau_b", pop.tau_b);
  v.num("population.eps_b", pop.eps_b);
  v.num("population.fee_a.block_interval", pop.fee_a.block_interval);
  v.sz("population.fee_a.block_capacity", pop.fee_a.block_capacity);
  v.sz("population.fee_a.mempool_capacity", pop.fee_a.mempool_capacity);
  v.num("population.fee_b.block_interval", pop.fee_b.block_interval);
  v.sz("population.fee_b.block_capacity", pop.fee_b.block_capacity);
  v.sz("population.fee_b.mempool_capacity", pop.fee_b.mempool_capacity);
  v.num("population.expiry_slack", pop.expiry_slack);
  v.num("population.base_fee", pop.base_fee);
  v.num("population.fee_spread", pop.fee_spread);
  v.num("population.rebid_factor", pop.rebid_factor);
  v.num("population.max_fee", pop.max_fee);
  v.u64("population.seed", pop.seed);
  v.u64("population.workers", pop.workers);
  v.b01("population.compaction.enabled", pop.compaction.enabled);
  v.num("population.compaction.horizon", pop.compaction.horizon);
  v.u64("population.compaction.interval", pop.compaction.interval);
  v.token(
      "population.types",
      [&pop] { return encode_trader_types(pop.types); },
      [&pop](std::string_view t) { return parse_trader_types(t, &pop.types); });
}

}  // namespace swapgame::engine::detail
