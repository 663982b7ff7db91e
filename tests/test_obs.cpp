// Unit tests for the observability layer (src/obs): TraceRecorder JSONL
// serialization, TraceCollector aggregation and the MetricsRegistry
// counter/histogram/snapshot contract, including the to_json/parse_snapshot
// round-trip the determinism tooling relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace swapgame;

// ---- JSON primitives -------------------------------------------------------

TEST(TraceJson, NumberFormattingRoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(obs::format_json_number(0.0), "0");
  EXPECT_EQ(obs::format_json_number(2.5), "2.5");
  EXPECT_EQ(obs::format_json_number(-1.0), "-1");
  // %.17g round-trips doubles exactly.
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::stod(obs::format_json_number(third)), third);
  // Non-finite values must still be valid JSON tokens.
  EXPECT_EQ(obs::format_json_number(std::numeric_limits<double>::quiet_NaN()),
            "\"nan\"");
  EXPECT_EQ(obs::format_json_number(std::numeric_limits<double>::infinity()),
            "\"inf\"");
  EXPECT_EQ(obs::format_json_number(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
}

TEST(TraceJson, EscapingCoversQuotesBackslashesAndControls) {
  std::string out;
  obs::append_json_escaped(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "a\\\"b\\\\c\\u000ad\\u0009e");
}

// ---- TraceRecorder ---------------------------------------------------------

TEST(TraceRecorder, SerializesEventsInOrderWithFixedKeyLayout) {
  obs::TraceRecorder trace;
  trace.record(0.0, obs::TraceKind::kRunStart, {{"p_star", 2.0}});
  trace.record(1.5, obs::TraceKind::kBroadcast,
               {{"chain", "Chain_a"}, {"tx", std::uint64_t{7}}});
  trace.record(3.0, obs::TraceKind::kDecision,
               {{"party", "alice"}, {"cont", true}, {"delta", -2}});

  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.to_jsonl(),
            "{\"t\":0,\"kind\":\"run-start\",\"p_star\":2}\n"
            "{\"t\":1.5,\"kind\":\"broadcast\",\"chain\":\"Chain_a\","
            "\"tx\":7}\n"
            "{\"t\":3,\"kind\":\"decision\",\"party\":\"alice\","
            "\"cont\":true,\"delta\":-2}\n");
}

TEST(TraceRecorder, PrefixIsInjectedAfterEveryOpeningBrace) {
  obs::TraceRecorder trace;
  trace.record(1.0, obs::TraceKind::kConfirm, {{"tx", std::uint64_t{1}}});
  trace.record(2.0, obs::TraceKind::kConfirm, {{"tx", std::uint64_t{2}}});
  EXPECT_EQ(trace.to_jsonl("\"sample\":42,"),
            "{\"sample\":42,\"t\":1,\"kind\":\"confirm\",\"tx\":1}\n"
            "{\"sample\":42,\"t\":2,\"kind\":\"confirm\",\"tx\":2}\n");
}

TEST(TraceRecorder, ClearEmptiesTheStream) {
  obs::TraceRecorder trace;
  trace.record(0.0, obs::TraceKind::kOutcome, {{"success", true}});
  EXPECT_FALSE(trace.empty());
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.to_jsonl(), "");
}

TEST(TraceKindNames, EveryEnumeratorHasAUniqueName) {
  std::vector<std::string> names;
  for (int k = 0; k <= static_cast<int>(obs::TraceKind::kOutcome); ++k) {
    names.emplace_back(obs::to_string(static_cast<obs::TraceKind>(k)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << "duplicate kind name " << names[i];
    }
  }
}

// ---- TraceCollector --------------------------------------------------------

TEST(TraceCollector, EmitsSamplesInAscendingIndexOrder) {
  obs::TraceCollector collector;
  obs::TraceRecorder t9;
  t9.record(0.0, obs::TraceKind::kOutcome, {{"success", false}});
  obs::TraceRecorder t2;
  t2.record(0.0, obs::TraceKind::kOutcome, {{"success", true}});
  collector.add(9, t9);  // insertion order is 9 then 2 ...
  collector.add(2, t2);
  EXPECT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.jsonl(),  // ... output order is 2 then 9
            "{\"sample\":2,\"t\":0,\"kind\":\"outcome\",\"success\":true}\n"
            "{\"sample\":9,\"t\":0,\"kind\":\"outcome\",\"success\":false}\n");
}

TEST(TraceCollector, ReAddingAnIndexOverwrites) {
  obs::TraceCollector collector;
  obs::TraceRecorder first;
  first.record(0.0, obs::TraceKind::kOutcome, {{"success", false}});
  obs::TraceRecorder second;
  second.record(0.0, obs::TraceKind::kOutcome, {{"success", true}});
  collector.add(5, first);
  collector.add(5, second);
  EXPECT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.jsonl(),
            "{\"sample\":5,\"t\":0,\"kind\":\"outcome\",\"success\":true}\n");
}

// ---- Counters and histograms -----------------------------------------------

TEST(Metrics, CounterIncrementsAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.hits");
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < 10'000; ++i) counter.inc();
    });
  }
  for (std::thread& t : workers) t.join();
  counter.inc(5);
  EXPECT_EQ(counter.value(), 40'005u);
  // Same name resolves to the same counter.
  EXPECT_EQ(registry.counter("test.hits").value(), 40'005u);
}

TEST(Metrics, HistogramBucketsUnderflowAndOverflow) {
  obs::HistogramMetric h(0.0, 10.0, 5);  // width-2 bins
  h.observe(-0.1);                       // underflow
  h.observe(0.0);                        // bin 0 (lo is inclusive)
  h.observe(1.999);                      // bin 0
  h.observe(2.0);                        // bin 1
  h.observe(9.999);                      // bin 4
  h.observe(10.0);                       // overflow (hi is exclusive)
  h.observe(std::numeric_limits<double>::quiet_NaN());  // underflow by policy
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(3), 0u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Metrics, HistogramRejectsBadShapes) {
  EXPECT_THROW(obs::HistogramMetric(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::HistogramMetric(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::HistogramMetric(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Metrics, RegistryRejectsShapeMismatchOnReRegistration) {
  obs::MetricsRegistry registry;
  obs::HistogramMetric& h = registry.histogram("test.util", 0.0, 1.0, 10);
  h.observe(0.5);
  // Same shape: same histogram back.
  EXPECT_EQ(registry.histogram("test.util", 0.0, 1.0, 10).total(), 1u);
  EXPECT_THROW((void)registry.histogram("test.util", 0.0, 2.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("test.util", 0.0, 1.0, 20),
               std::invalid_argument);
}

// ---- Snapshots and the JSON round-trip -------------------------------------

TEST(Metrics, SnapshotIsDeterministicAndNameSorted) {
  obs::MetricsRegistry registry;
  registry.counter("z.last").inc(3);
  registry.counter("a.first").inc(1);
  registry.histogram("m.hist", -1.0, 1.0, 2).observe(0.5);

  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");
  EXPECT_EQ(snap.counters.at("z.last"), 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hist = snap.histograms.at("m.hist");
  EXPECT_EQ(hist.lo, -1.0);
  EXPECT_EQ(hist.hi, 1.0);
  ASSERT_EQ(hist.counts.size(), 2u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(registry.snapshot(), snap);  // stable without new observations
}

TEST(Metrics, JsonRoundTripReproducesTheSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("swap.runs").inc(42);
  registry.counter("swap.outcome.success").inc(17);
  // Above 2^53: must round-trip exactly, not through a double.
  registry.counter("swap.u64_max")
      .inc(std::numeric_limits<std::uint64_t>::max());
  obs::HistogramMetric& h = registry.histogram("swap.utility", -4.0, 12.0, 8);
  h.observe(-10.0);
  h.observe(0.0);
  h.observe(3.75);
  h.observe(99.0);

  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  const std::string json = obs::MetricsRegistry::to_json(snap);
  const obs::MetricsRegistry::Snapshot parsed =
      obs::MetricsRegistry::parse_snapshot(json);
  EXPECT_EQ(parsed, snap);
  // Canonical rendering: serializing the parse gives identical bytes.
  EXPECT_EQ(obs::MetricsRegistry::to_json(parsed), json);
}

TEST(Metrics, EmptyRegistryRoundTrips) {
  const obs::MetricsRegistry registry;
  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(obs::MetricsRegistry::parse_snapshot(
                obs::MetricsRegistry::to_json(snap)),
            snap);
}

TEST(Metrics, ParseRejectsMalformedJson) {
  EXPECT_THROW((void)obs::MetricsRegistry::parse_snapshot(""),
               std::invalid_argument);
  EXPECT_THROW((void)obs::MetricsRegistry::parse_snapshot("{\"counters\":"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::MetricsRegistry::parse_snapshot("[]"),
               std::invalid_argument);
  // A negative counter must not wrap to 2^64 - 1.
  EXPECT_THROW((void)obs::MetricsRegistry::parse_snapshot(
                   "{\"counters\":{\"a\":-1},\"histograms\":{}}"),
               std::invalid_argument);
  // Nothing may follow the closing brace.
  EXPECT_THROW((void)obs::MetricsRegistry::parse_snapshot(
                   "{\"counters\":{},\"histograms\":{}} junk"),
               std::invalid_argument);
}

}  // namespace
