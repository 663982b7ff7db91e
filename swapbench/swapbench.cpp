// swapbench: the swapgame benchmark program.
//
//   swapbench <population|accuracy_sweep|service> --seed N --seconds S
//             --trace 0|1 --tmp DIR [--spans FILE] [--smoke]
//
// Every input of a run derives from --seed.  The run prints a host/build
// stamp, one "# check" line per correctness check, one "name value unit"
// line per metric and a closing "# result" line; run.py turns that into
// the benchmark's JSON result.  README.md maps each metric to its layer
// and explains why each workload exists.
//
// Untraced runs (--trace 0) measure the end-to-end metrics.  A traced run
// (--trace 1) repeats the workload's measured pass with spans recorded
// around this file's calls into the library (market, engine, service,
// model, math), derives the per-layer metrics from those spans and from
// the library's own counters, and reports the traced/untraced wall-clock
// ratio as the tracing overhead.  Spans stay in memory until the run ends
// and are then written to --spans as JSON lines.
#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/batch_engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/run_spec.hpp"
#include "market/population/population_sim.hpp"
#include "math/simd.hpp"
#include "math/stats.hpp"
#include "model/basic_game.hpp"
#include "model/params.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

using namespace swapgame;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Seeded inputs

/// splitmix64 finalizer over (seed, a, b, c): every generated input is a
/// pure function of the run seed and its coordinates.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0) {
  std::uint64_t z = seed;
  for (const std::uint64_t v : {a, b, c}) {
    z += 0x9E3779B97F4A7C15ULL + v;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  return z;
}

/// Uniform in [0, 1) from a mix() value.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss would
/// also count the parent's resident set at fork, which survives exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Spans

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span on the same thread (0: none)
  std::uint64_t job = 0;     ///< request the span belongs to (0: none)
  std::string name;
  std::string detail;
  double start_s = 0.0;  ///< since the tracer's epoch
  double dur_s = 0.0;
};

/// In-memory span store.  Only a traced run creates one; spans are kept
/// until the run ends and written out once.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(SpanRecord rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
  }

  double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Durations (seconds) of every span called `name` (and `detail`, when
  /// given).
  std::vector<double> durations(const std::string& name,
                                const std::string& detail = "") const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name && (detail.empty() || s.detail == detail)) {
        out.push_back(s.dur_s);
      }
    }
    return out;
  }

  bool write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << ",\"name\":\"" << s.name
          << "\",\"detail\":\"" << s.detail << "\",\"start_s\":"
          << obs::json::format_number(s.start_s)
          << ",\"dur_s\":" << obs::json::format_number(s.dur_s) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer* g_tracer = nullptr;  ///< set for the traced pass of a traced run
thread_local std::vector<std::uint64_t> t_open_spans;

/// Times one call; when a tracer is active it also records the call as a
/// span nested under the span open on this thread.
class Span {
 public:
  explicit Span(std::string name, std::string detail = "",
                std::uint64_t job = 0)
      : tracer_(g_tracer), start_(Clock::now()) {
    if (tracer_ == nullptr) return;
    rec_.id = tracer_->next_id();
    rec_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
    rec_.job = job;
    rec_.name = std::move(name);
    rec_.detail = std::move(detail);
    t_open_spans.push_back(rec_.id);
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double finish() {
    if (!done_) {
      done_ = true;
      dur_s_ = seconds_since(start_);
      if (tracer_ != nullptr) {
        t_open_spans.pop_back();
        rec_.start_s = tracer_->offset(start_);
        rec_.dur_s = dur_s_;
        tracer_->record(std::move(rec_));
      }
    }
    return dur_s_;
  }

  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  SpanRecord rec_;
  bool done_ = false;
  double dur_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Output

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string tmp;
  std::string spans;
};

/// Collects checks and prints metric lines as they are measured.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    std::printf("%s %.17g %s\n", name.c_str(), value, unit);
    std::fflush(stdout);
  }

  /// One correctness check; every check is one attempt toward error_rate.
  bool check(const std::string& name, bool ok, const std::string& detail = "") {
    ++attempted_;
    if (!ok) ++failed_;
    // Print every failure, but only the first pass of a repeated check.
    if (!ok || printed_.insert(name).second) {
      std::printf("# check %s %s%s%s\n", name.c_str(), ok ? "ok" : "FAIL",
                  detail.empty() ? "" : " ", detail.c_str());
      std::fflush(stdout);
    }
    return ok;
  }

  void finish() {
    metric("error_rate",
           attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_),
           "ratio");
    std::printf("# result attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  }

  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::set<std::string> printed_;
};

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  for (char& c : s) {
    if (c == '"') c = '\'';
  }
  return s;
}

void print_stamp(const Args& args) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "# stamp cpu=\"%s\" nproc=%u compiler=\"%s\" build_type=%s simd=%s "
      "workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
      cpu_model().c_str(), hardware_threads(), compiler.c_str(),
      SWAPBENCH_BUILD_TYPE, math::simd::to_string(math::simd::active_level()),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0);
}

/// Times a workload's set-up.  The workloads call it before each measured
/// unit (a run, a sweep, a daemon lifetime) rather than once at process
/// start, so the set-up samples are spread over the measured window and
/// see the same host-speed drift as the metrics beside them.
///
/// Set-up is mostly single-threaded, and on a shared VM one thread's speed
/// depends on the CPU it runs on: vCPUs can differ by 1.5x at a time, and
/// the scheduler keeps a thread on one of them for seconds.  So one sample
/// runs the set-up once pinned to each CPU the process may use, in turn,
/// and takes the mean; setup_s is the median of the samples.
class SetupTimer {
 public:
  SetupTimer() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
    if (cpus_.empty()) cpus_.push_back(-1);  // affinity unknown: no pinning
  }

  /// Takes `reps` samples.  `setup` returns what it built; that is torn
  /// down after the clock stops.
  template <typename F>
  void sample(int reps, F&& setup) {
    for (int i = 0; i < reps; ++i) {
      double total = 0.0;
      for (const int cpu : cpus_) {
        if (cpu >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          sched_setaffinity(0, sizeof(one), &one);
        }
        const Clock::time_point t0 = Clock::now();
        const auto built = setup();
        total += seconds_since(t0);
      }
      if (cpus_.front() >= 0) sched_setaffinity(0, sizeof(allowed_), &allowed_);
      samples_.push_back(total / static_cast<double>(cpus_.size()));
    }
  }

  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Layer probes shared by every traced run

/// ns per sample of each math::simd kernel at the model-MC chunk size
/// (8192 samples, as the sim layer draws them), median of repeated blocks.
struct SimdTiming {
  double fill_ns = 0.0;
  double quantile_ns = 0.0;
  double zkernel_ns = 0.0;
  double welford_ns = 0.0;
};

SimdTiming time_simd(const math::simd::KernelTable& kt, std::uint64_t seed) {
  constexpr std::size_t kN = 8192;
  constexpr int kReps = 41;
  std::vector<double> u(kN), z2(kN), z3(kN), work(kN), y(kN), x(kN);
  math::Xoshiro256 rng(seed);
  kt.fill_uniform01(rng, z2.data(), kN);
  kt.normal_quantile_transform(z2.data(), kN);
  kt.fill_uniform01(rng, z3.data(), kN);
  kt.normal_quantile_transform(z3.data(), kN);
  const math::simd::ZIntervalPod regions[] = {{-0.8, 0.9}};
  math::simd::ZKernelPod pod;
  pod.regions = regions;
  pod.region_count = 1;
  pod.c0 = 0.2;
  pod.c1 = 0.5;

  std::vector<double> fill, quantile, zkernel, welford;
  for (int r = 0; r < kReps; ++r) {
    Clock::time_point t0 = Clock::now();
    kt.fill_uniform01(rng, u.data(), kN);
    fill.push_back(seconds_since(t0));

    std::copy(u.begin(), u.end(), work.begin());
    t0 = Clock::now();
    kt.normal_quantile_transform(work.data(), kN);
    quantile.push_back(seconds_since(t0));

    t0 = Clock::now();
    kt.zkernel_eval(pod, z2.data(), z3.data(), 1.0, y.data(), x.data(), kN);
    zkernel.push_back(seconds_since(t0));

    math::simd::WelfordLanes lanes{};
    t0 = Clock::now();
    kt.welford_block(y.data(), x.data(), kN, lanes);
    welford.push_back(seconds_since(t0));
  }
  const double per = 1e9 / static_cast<double>(kN);
  return {median(fill) * per, median(quantile) * per, median(zkernel) * per,
          median(welford) * per};
}

/// Median cold BasicGame construction time (ms) over the given points.
double time_game_build(const std::vector<std::pair<model::SwapParams, double>>&
                           points) {
  std::vector<double> ms;
  for (const auto& [params, p_star] : points) {
    Span span("model.BasicGame", "ctor");
    const model::BasicGame game(params, p_star);
    ms.push_back(span.finish() * 1e3);
  }
  return median(ms);
}

/// Engine codec/hash/cache probes over (at most 64 of) the workload's
/// own specs and results, plus the simd and model probes; prints the probe
/// metrics.
void probe_layers(const Args& args, Report& report,
                  std::vector<engine::RunSpec> specs,
                  std::vector<engine::RunResult> results,
                  const std::vector<std::pair<model::SwapParams, double>>&
                      game_points) {
  constexpr std::size_t kMaxCells = 64;
  specs.resize(std::min(specs.size(), kMaxCells));
  results.resize(specs.size());
  const SimdTiming active =
      time_simd(math::simd::kernels(), mix(args.seed, 901));
  const SimdTiming scalar = time_simd(
      *math::simd::kernels(math::simd::SimdLevel::kScalar),
      mix(args.seed, 901));
  report.metric("math.simd.fill_ns", active.fill_ns, "ns");
  report.metric("math.simd.quantile_ns", active.quantile_ns, "ns");
  report.metric("math.simd.zkernel_ns", active.zkernel_ns, "ns");
  report.metric("math.simd.welford_ns", active.welford_ns, "ns");
  report.metric("math.simd.quantile_vs_scalar",
                scalar.quantile_ns / active.quantile_ns, "ratio");

  report.metric("model.game_build_ms", time_game_build(game_points), "ms");

  std::vector<double> hash_us, json_us, entry_us, put_us, get_us;
  std::vector<std::string> hashes;
  bool codec_ok = true;
  for (int rep = 0; rep < 5; ++rep) {
    for (const engine::RunSpec& spec : specs) {
      Clock::time_point t0 = Clock::now();
      std::string h = spec.hash();
      hash_us.push_back(seconds_since(t0) * 1e6);
      if (rep == 0) hashes.push_back(std::move(h));

      t0 = Clock::now();
      engine::RunSpec back;
      const Status st = engine::RunSpec::from_json(spec.to_json(), &back);
      json_us.push_back(seconds_since(t0) * 1e6);
      codec_ok = codec_ok && st.is_ok() &&
                 back.canonical_string() == spec.canonical_string();
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string line = results[i].to_entry(hashes[i]);
      const auto parsed = engine::RunResult::parse_entry(line);
      entry_us.push_back(seconds_since(t0) * 1e6);
      codec_ok = codec_ok && parsed.has_value() &&
                 parsed->second.to_entry(hashes[i]) == line;
    }
  }
  report.check("engine_codec_round_trip", codec_ok);

  // Disk tier only (memory capacity 0): put publishes a file, get on a
  // fresh cache instance reads and validates it back.
  const std::string dir = args.tmp + "/probe-cache";
  std::filesystem::remove_all(dir);
  {
    engine::ResultCache cache(0, dir);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      cache.put(hashes[i], results[i]);
      put_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  bool cache_ok = true;
  {
    engine::ResultCache cache(0, dir);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const auto got = cache.get(hashes[i]);
      get_us.push_back(seconds_since(t0) * 1e6);
      cache_ok = cache_ok && got.has_value() &&
                 got->to_entry(hashes[i]) == results[i].to_entry(hashes[i]);
    }
  }
  std::filesystem::remove_all(dir);
  report.check("engine_cache_round_trip", cache_ok);
  report.metric("engine.spec_hash_us", median(hash_us), "us");
  report.metric("engine.codec.spec_json_us", median(json_us), "us");
  report.metric("engine.codec.entry_us", median(entry_us), "us");
  report.metric("engine.cache.put_us", median(put_us), "us");
  report.metric("engine.cache.get_us", median(get_us), "us");
}

/// Counters of a layer a workload does not reach are printed as the true
/// count, zero, so every traced run reports the same per-layer names.
void zero_counts(Report& report, const std::vector<const char*>& names) {
  for (const char* name : names) report.metric(name, 0.0, "count");
}

const std::vector<const char*> kPopulationCounts = {
    "market.population.peak_live_sessions",
    "market.fee.blocks_sealed",
    "market.fee.txs_included",
    "market.fee.txs_evicted",
    "market.fee.rebids",
    "chain.compactions",
    "chain.txs_retired",
    "chain.htlcs_retired",
    "chain.accounts_retired",
    "chain.log_truncated",
    "model.threshold_games",
    "model.t1_evaluations"};
const std::vector<const char*> kMcCounts = {
    "sim.model.samples", "sim.model.rounds", "sim.protocol.samples"};
const std::vector<const char*> kEngineCounts = {
    "engine.cells_run", "engine.cache.memory_hits", "engine.cache.disk_hits"};
const std::vector<const char*> kServiceCounts = {"service.jobs_rejected",
                                                 "service.cells_failed"};

// ---------------------------------------------------------------------------
// population

/// The x16 headline shape (bench/bench_x16_population.cpp: base_config
/// scaled 10x in flow and block space, compaction on).  Queue storage
/// shards stay at the default 1.
market::PopulationConfig population_config(std::uint64_t seed,
                                           std::uint64_t run,
                                           std::uint64_t sessions,
                                           std::uint64_t workers) {
  market::PopulationConfig config;
  config.sessions = sessions;
  config.arrival_rate = 6000.0;
  config.fee_a.block_capacity = 1600;
  config.fee_b.block_capacity = 1600;
  config.fee_a.mempool_capacity = 5120;
  config.fee_b.mempool_capacity = 5120;
  config.impact = 1e-5;
  config.compaction.enabled = true;
  config.compaction.horizon = 4.0;
  config.compaction.interval = 1024;
  config.workers = workers;
  config.seed = mix(seed, 1, run);
  return config;
}

/// Output checks of one population run; `tag` names the run.
void check_population(Report& report, const std::string& tag,
                      const market::PopulationResult& r,
                      const market::PopulationConfig& config) {
  const std::uint64_t outcomes = r.never_initiated + r.aborted_t2 +
                                 r.aborted_t3 + r.completed + r.starved +
                                 r.atomicity_lost;
  report.check(tag + ".conserved", r.conserved);
  report.check(tag + ".outcomes_sum_to_sessions",
               outcomes == r.sessions && r.sessions == config.sessions,
               std::to_string(outcomes) + "/" + std::to_string(r.sessions));
  // Settlement latency (hours from t1 to the last claim) is an output
  // users read: finite, ordered, and above the one-leg confirmation floor.
  const double p50 = r.stats.latency_p50;
  const double p90 = r.stats.latency_p90;
  const double p99 = r.stats.latency_p99;
  report.check(tag + ".settlement_latency_ordered",
               r.completed > 0 && std::isfinite(p99) && p50 > config.tau_a &&
                   p50 <= p90 && p90 <= p99,
               "p50=" + std::to_string(p50) + "h p99=" + std::to_string(p99) +
                   "h");
}

/// A market_sim cell that also records every 997th session's trace, so
/// the workers comparison covers the trace bytes (as bench_x16_population
/// does).
engine::RunSpec population_spec(const market::PopulationConfig& config) {
  engine::RunSpec spec;
  spec.kind = engine::CellKind::kMarketSim;
  spec.label = "swapbench:population";
  spec.population = config;
  spec.mc.config.trace_stride = 997;
  return spec;
}

/// True iff two market_sim results agree bit for bit on every value except
/// `compactions`, which counts per-shard ledger sweeps and so scales with
/// the worker count by design (population_sim.hpp).
bool same_except_compactions(const engine::RunResult& a,
                             const engine::RunResult& b) {
  if (a.values.size() != b.values.size()) return false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i].first != b.values[i].first) return false;
    if (a.values[i].first == "compactions") continue;
    if (std::memcmp(&a.values[i].second, &b.values[i].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return !a.trace.empty() && a.trace == b.trace;
}

/// Set-up samples before each population run (about 3 runs per window).
constexpr int kPopulationSetupReps = 25;

int run_population(const Args& args, Report& report) {
  const std::uint64_t sessions = args.smoke ? 4000 : 100000;
  const std::uint64_t workers = std::min(4u, hardware_threads());
  const market::PopulationConfig config =
      population_config(args.seed, 0, sessions, workers);

  // Measured pass: whole runs until the next would overrun --seconds.
  // Run r draws its own order flow and price path (sub-seed r), so the
  // median spans several market histories, not one.  Before each run,
  // set-up samples: everything before run() -- config validation and the
  // simulator's ledgers, queues, caches and worker pool.
  SetupTimer setup;
  std::vector<double> run_s;
  market::PopulationResult last;
  const Clock::time_point begin = Clock::now();
  do {
    const market::PopulationConfig run_config =
        population_config(args.seed, run_s.size(), sessions, workers);
    setup.sample(kPopulationSetupReps, [&] {
      return std::make_unique<market::PopulationSim>(run_config);
    });
    market::PopulationSim sim(run_config);
    Span span("market.PopulationSim.run", "workers=" + std::to_string(workers));
    last = sim.run();
    run_s.push_back(span.finish());
    check_population(report, "population", last, run_config);
  } while (seconds_since(begin) + run_s.back() <= args.seconds);

  const double wall = median(run_s);
  const double per_s = static_cast<double>(last.sessions) / wall;
  report.metric("setup_s", setup.median_s(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", per_s, "1/s");
  report.metric("latency_ms", wall * 1e3, "ms");
  report.metric("sessions_per_s", per_s, "1/s");
  report.metric("population.sessions", static_cast<double>(last.sessions),
                "count");
  report.metric("population.runs", static_cast<double>(run_s.size()), "count");
  report.metric("population.completion_rate", last.stats.completion_rate(),
                "ratio");
  report.metric("population.settlement_p50_h", last.stats.latency_p50, "h");
  report.metric("population.settlement_p99_h", last.stats.latency_p99, "h");
  if (!args.trace) return 0;

  // Traced pass.  Each call goes through engine::evaluate_cell, whose
  // market_sim packing names every PopulationResult field, so the
  // workers=1 / workers=N comparison covers all of them.  It replays the
  // last untraced run's sub-seed: the overhead ratio then compares two
  // runs of one market history, neither of them the process's first.
  const std::uint64_t replay = run_s.size() - 1;
  Tracer tracer;
  g_tracer = &tracer;
  const auto timed_cell = [](const engine::RunSpec& spec, const char* detail,
                             double* seconds) {
    Span span("engine.evaluate_cell", detail);
    engine::RunResult r = engine::evaluate_cell(spec);
    *seconds = span.finish();
    return r;
  };
  double wall_n = 0.0, wall_1 = 0.0, wall_q = 0.0;
  const engine::RunSpec spec_n =
      population_spec(population_config(args.seed, replay, sessions, workers));
  const engine::RunResult res_n = timed_cell(spec_n, "market_sim", &wall_n);
  const engine::RunResult res_1 = timed_cell(
      population_spec(population_config(args.seed, replay, sessions, 1)),
      "market_sim", &wall_1);
  const engine::RunResult res_q = timed_cell(
      population_spec(
          population_config(args.seed, replay, sessions / 4, workers)),
      "market_sim", &wall_q);
  report.check("population.workers_1_vs_n_bit_identical",
               same_except_compactions(res_1, res_n),
               "workers=" + std::to_string(workers));
  report.check("population.traced_conserved",
               res_n.at("conserved") == 1.0 && res_1.at("conserved") == 1.0 &&
                   res_q.at("conserved") == 1.0);

  const double n = res_n.at("sessions");
  const double included = res_n.at("txs_included");
  report.metric("trace.overhead_ratio", wall_n / run_s.back(), "ratio");
  report.metric("market.population.us_per_session", wall_n / n * 1e6, "us");
  report.metric("market.population.scaling_ratio",
                (n / wall_n) / (res_q.at("sessions") / wall_q), "ratio");
  report.metric("market.population.parallel_speedup", wall_1 / wall_n,
                "ratio");
  report.metric("market.population.peak_live_sessions",
                res_n.at("peak_live_sessions"), "count");
  report.metric("market.fee.blocks_sealed", res_n.at("blocks_sealed"),
                "count");
  report.metric("market.fee.txs_included", included, "count");
  report.metric("market.fee.txs_evicted", res_n.at("txs_evicted"), "count");
  report.metric("market.fee.rebids", res_n.at("rebids"), "count");
  report.metric("market.fee.inclusion_ratio",
                included / (included + res_n.at("txs_evicted") +
                            res_n.at("txs_expired")),
                "ratio");
  report.metric("chain.compactions", res_n.at("compactions"), "count");
  report.metric("chain.txs_retired", res_n.at("txs_retired"), "count");
  report.metric("chain.htlcs_retired", res_n.at("htlcs_retired"), "count");
  report.metric("chain.accounts_retired", res_n.at("accounts_retired"),
                "count");
  report.metric("chain.log_truncated", res_n.at("log_truncated"), "count");
  const double games = res_n.at("threshold_games");
  const double t1 = res_n.at("t1_evaluations");
  report.metric("model.threshold_games", games, "count");
  report.metric("model.t1_evaluations", t1, "count");
  report.metric("model.solves_per_1k_sessions", (games + t1) / n * 1e3,
                "ratio");
  zero_counts(report, kMcCounts);
  zero_counts(report, kEngineCounts);
  zero_counts(report, kServiceCounts);

  // The default trader types at the run's initial price: the games the
  // threshold cache solves first.
  std::vector<std::pair<model::SwapParams, double>> points;
  const model::SwapParams base = model::SwapParams::table3_defaults();
  for (const market::TraderType& a : market::PopulationConfig::default_types()) {
    for (const market::TraderType& b :
         market::PopulationConfig::default_types()) {
      model::SwapParams p = base;
      p.alice = a.agent;
      p.bob = b.agent;
      points.emplace_back(p, config.p0);
    }
  }
  probe_layers(args, report, {spec_n}, {res_n}, points);
  g_tracer = nullptr;
  if (!args.spans.empty()) tracer.write_jsonl(args.spans);
  return 0;
}

// ---------------------------------------------------------------------------
// accuracy_sweep

struct SweepShape {
  int points = 12;
  double model_hw = 1.5e-3;  ///< plain model-MC target half-width
  double vr_hw = 7.5e-4;     ///< antithetic + control variate target
  double protocol_hw = 0.01; ///< protocol-MC Wilson half-width (95%)
};

/// Model-MC cells stop on a CI at this confidence, so "lands within its
/// CI" fails by chance about once per million cells.
constexpr double kModelConfidence = 0.999999;

/// One sweep's cells: per grid point an analytic reference, plain
/// model-MC, antithetic+CV model-MC and protocol-MC, each MC cell run to
/// its CI target.  `sweep` keys the MC seeds, so every sweep is distinct.
std::vector<engine::RunSpec> sweep_specs(const Args& args,
                                         const SweepShape& shape,
                                         const model::FeasibleBand& band,
                                         std::uint64_t sweep) {
  const model::SwapParams params = model::SwapParams::table3_defaults();
  std::vector<engine::RunSpec> specs;
  for (int i = 0; i < shape.points; ++i) {
    // Grid point i sits in the middle half of its slot of the band.
    const double u = 0.25 + 0.5 * unit(mix(args.seed, 11, i));
    const double p_star = band.lo + (band.hi - band.lo) *
                                        (static_cast<double>(i) + u) /
                                        static_cast<double>(shape.points);
    engine::RunSpec base;
    base.mc.params = params;
    base.mc.p_star = p_star;

    engine::RunSpec analytic = base;
    analytic.kind = engine::CellKind::kAnalyticSr;
    analytic.label = "analytic";
    specs.push_back(analytic);

    engine::RunSpec plain = base;
    plain.kind = engine::CellKind::kMc;
    plain.label = "mc_model";
    plain.mc.evaluator = sim::McEvaluator::kModel;
    plain.mc.config.samples = std::size_t{1} << 28;
    plain.mc.config.seed = mix(args.seed, 12, sweep, i);
    plain.mc.config.target_half_width = shape.model_hw;
    plain.mc.config.ci_confidence = kModelConfidence;
    specs.push_back(plain);

    engine::RunSpec vr = plain;
    vr.label = "mc_model_vr";
    vr.mc.config.seed = mix(args.seed, 13, sweep, i);
    vr.mc.config.target_half_width = shape.vr_hw;
    vr.mc.config.antithetic = true;
    vr.mc.config.control_variate = true;
    specs.push_back(vr);

    engine::RunSpec proto = base;
    proto.kind = engine::CellKind::kMc;
    proto.label = "mc_protocol";
    proto.mc.evaluator = sim::McEvaluator::kProtocol;
    proto.mc.config.samples = std::size_t{1} << 22;
    proto.mc.config.seed = mix(args.seed, 14, sweep, i);
    proto.mc.config.target_half_width = shape.protocol_hw;
    proto.mc.config.ci_confidence = 0.95;
    specs.push_back(proto);
  }
  return specs;
}

const char* cell_kind(const engine::RunSpec& spec) {
  if (spec.kind == engine::CellKind::kAnalyticSr) return "analytic_sr";
  if (spec.kind == engine::CellKind::kSrGrid) return "sr_grid";
  return spec.mc.evaluator == sim::McEvaluator::kProtocol ? "mc_protocol"
                                                          : "mc_model";
}

/// The accuracy checks of one sweep (cells in sweep_specs order).
void check_sweep(Report& report, const SweepShape& shape,
                 const std::vector<engine::RunSpec>& specs,
                 const std::vector<engine::RunResult>& results) {
  for (std::size_t i = 0; i + 3 < specs.size(); i += 4) {
    const double analytic = results[i].at("sr");
    for (std::size_t k = 1; k <= 2; ++k) {
      const engine::RunResult& r = results[i + k];
      const double target = specs[i + k].mc.config.target_half_width;
      const double hw = r.at("half_width");
      report.check("accuracy_sweep.model_mc_reaches_target",
                   r.complete && hw <= target,
                   "hw=" + std::to_string(hw));
      report.check("accuracy_sweep.model_mc_ci_covers_analytic",
                   std::abs(r.at("sr") - analytic) <= hw,
                   "p*=" + std::to_string(specs[i].mc.p_star));
    }
    const engine::RunResult& proto = results[i + 3];
    const math::BinomialCounter counter = math::BinomialCounter::from_counts(
        static_cast<std::uint64_t>(proto.at("success_successes")),
        static_cast<std::uint64_t>(proto.at("success_trials")));
    const auto reach = counter.wilson_interval(0.95);
    report.check("accuracy_sweep.protocol_mc_reaches_target",
                 proto.complete &&
                     0.5 * (reach.hi - reach.lo) <= shape.protocol_hw,
                 "n=" + std::to_string(counter.trials()));
    // x1's rule: the analytic SR inside the 99.9% Wilson CI, padded 0.01.
    const auto ci = counter.wilson_interval(0.999);
    report.check("accuracy_sweep.protocol_ci_covers_analytic",
                 analytic >= ci.lo - 0.01 && analytic <= ci.hi + 0.01,
                 "p*=" + std::to_string(specs[i].mc.p_star));
    report.check("accuracy_sweep.protocol_audit_clean",
                 proto.at("conservation_failures") == 0.0 &&
                     proto.at("invariant_failures") == 0.0);
  }
}

/// Set-up samples before the first sweep and after each (about 10 sweeps
/// per window).
constexpr int kSweepSetupReps = 1;

int run_accuracy_sweep(const Args& args, Report& report) {
  SweepShape shape;
  if (args.smoke) {
    shape.points = 2;
    shape.model_hw = 6e-3;
    shape.vr_hw = 4e-3;
    shape.protocol_hw = 0.05;
  }
  const unsigned threads = hardware_threads();
  const model::SwapParams params = model::SwapParams::table3_defaults();

  // Set-up: the feasible band the grid spans (an uncached scan of
  // BasicGame t1 decisions) and a cold engine with its worker pool.
  // Sampled before the first sweep and after each one.
  SetupTimer setup;
  model::FeasibleBand band;
  const auto set_up = [&] {
    band = model::alice_feasible_band(params);
    engine::EngineConfig ec;
    ec.threads = threads;
    return std::make_unique<engine::BatchEngine>(ec);
  };
  setup.sample(kSweepSetupReps, set_up);
  report.check("accuracy_sweep.band_viable", band.viable && band.hi > band.lo);
  if (!band.viable) return 1;

  // Measured pass: cold sweeps (fresh engine, fresh seeds) until the next
  // would overrun --seconds; sweep_s is their median.
  std::vector<double> sweep_s;
  std::vector<engine::RunSpec> specs;
  std::vector<engine::RunResult> results;
  const Clock::time_point begin = Clock::now();
  std::uint64_t sweep = 0;
  do {
    specs = sweep_specs(args, shape, band, sweep++);
    engine::EngineConfig ec;
    ec.threads = threads;
    engine::BatchEngine engine(ec);
    Span span("engine.BatchEngine.run_batch", "sweep");
    results = engine.run_batch(specs);
    sweep_s.push_back(span.finish());
    check_sweep(report, shape, specs, results);
    report.check("accuracy_sweep.all_cells_cold",
                 engine.stats().cells_run == specs.size());
    setup.sample(kSweepSetupReps, set_up);
  } while (seconds_since(begin) + sweep_s.back() <= args.seconds);

  const double wall = median(sweep_s);
  report.metric("setup_s", setup.median_s(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", shape.points / wall, "1/s");
  report.metric("latency_ms", wall * 1e3, "ms");
  report.metric("sweep_s", wall, "s");
  report.metric("accuracy_sweep.sweeps", static_cast<double>(sweep_s.size()),
                "count");
  report.metric("accuracy_sweep.cells", static_cast<double>(specs.size()),
                "count");
  if (!args.trace) return 0;

  // Traced pass: one more cold sweep under spans, then every cell of it
  // again through direct evaluate_cell calls on `threads` threads, each in
  // its own span -- the per-kind cell times and the pool's busy fraction.
  Tracer tracer;
  g_tracer = &tracer;
  specs = sweep_specs(args, shape, band, sweep);
  engine::EngineStats stats;
  double traced_wall = 0.0;
  {
    engine::EngineConfig ec;
    ec.threads = threads;
    engine::BatchEngine engine(ec);
    Span span("engine.BatchEngine.run_batch", "sweep");
    results = engine.run_batch(specs);
    traced_wall = span.finish();
    stats = engine.stats();
  }
  check_sweep(report, shape, specs, results);

  std::vector<engine::RunResult> direct(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        Span span("engine.evaluate_cell", cell_kind(specs[i]));
        direct[i] = engine::evaluate_cell(specs[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  bool same = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    same = same && direct[i].to_entry("") == results[i].to_entry("");
  }
  report.check("accuracy_sweep.direct_cells_match_batch", same);

  double model_samples = 0.0, model_rounds = 0.0, proto_samples = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string kind = cell_kind(specs[i]);
    if (kind == "mc_model") {
      model_samples += static_cast<double>(results[i].samples);
      model_rounds += static_cast<double>(results[i].rounds);
    } else if (kind == "mc_protocol") {
      proto_samples += static_cast<double>(results[i].samples);
    }
  }
  const std::vector<double> all_cells = tracer.durations("engine.evaluate_cell");
  const double model_s = sum(tracer.durations("engine.evaluate_cell", "mc_model"));
  const double proto_s =
      sum(tracer.durations("engine.evaluate_cell", "mc_protocol"));
  report.metric("trace.overhead_ratio", traced_wall / wall, "ratio");
  for (const char* kind : {"analytic_sr", "mc_model", "mc_protocol"}) {
    report.metric(std::string("engine.cell_s.") + kind,
                  median(tracer.durations("engine.evaluate_cell", kind)), "s");
  }
  report.metric("sim.model.samples", model_samples, "count");
  report.metric("sim.model.rounds", model_rounds, "count");
  report.metric("sim.model.samples_per_s", model_samples / model_s, "1/s");
  report.metric("sim.protocol.samples", proto_samples, "count");
  report.metric("sim.protocol.samples_per_s", proto_samples / proto_s, "1/s");
  report.metric("sweep.pool.busy_frac",
                sum(all_cells) / (threads * traced_wall), "ratio");
  report.metric("engine.cells_run", static_cast<double>(stats.cells_run),
                "count");
  report.metric("engine.cache.memory_hits",
                static_cast<double>(stats.memory_hits), "count");
  report.metric("engine.cache.disk_hits", static_cast<double>(stats.disk_hits),
                "count");
  report.metric("engine.cache.hit_ratio",
                static_cast<double>(stats.cache_hits()) /
                    static_cast<double>(stats.cells_total),
                "ratio");
  zero_counts(report, kPopulationCounts);
  zero_counts(report, kServiceCounts);

  std::vector<std::pair<model::SwapParams, double>> points;
  for (std::size_t i = 0; i < specs.size(); i += 4) {
    points.emplace_back(params, specs[i].mc.p_star);
  }
  probe_layers(args, report, specs, results, points);
  g_tracer = nullptr;
  if (!args.spans.empty()) tracer.write_jsonl(args.spans);
  return 0;
}

// ---------------------------------------------------------------------------
// service

struct ServiceShape {
  unsigned workers = 2;
  int clients = 2;
  /// Repeat jobs per block of 10.  An arbitrary fixed choice, not a
  /// measured traffic mix; it is fixed rather than drawn per job so the
  /// warm/cold mix (and with it the latency percentiles) does not drift
  /// with the seed.
  int repeats_per_10 = 3;
  /// A repeat re-submits one of its client's last `history` fresh jobs.
  std::size_t history = 64;
  /// Jobs (both clients together) one daemon serves before it is stopped
  /// and a new one started over the same cache dir, as a deployment
  /// restart would.  Also an arbitrary fixed choice: it brings the disk
  /// tier in (repeats of jobs from an earlier lifetime come from disk) and
  /// bounds how many entries the memory tier holds, so peak RSS does not
  /// grow with the number of jobs the host gets through in the window.
  std::uint64_t jobs_per_lifetime = 160;
  int grid_count = 8;
  double model_hw = 2e-3;
  double protocol_hw = 0.03;
};

/// Set-up samples before the first service slice and after each.
constexpr int kServiceSetupReps = 2;

/// One fresh job: an sr_grid panel, an analytic point, two adaptive
/// model-MC cells (plain and antithetic+CV) and two protocol-MC cells
/// with Wilson stopping.  The MC cells depend on the grid cell.
std::vector<engine::BatchNode> fresh_job(const Args& args,
                                         const ServiceShape& shape,
                                         const model::FeasibleBand& band,
                                         std::uint64_t client,
                                         std::uint64_t k) {
  const model::SwapParams params = model::SwapParams::table3_defaults();
  const auto p_at = [&](std::uint64_t node) {
    const double u = 0.1 + 0.8 * unit(mix(args.seed, 20 + node, client, k));
    return band.lo + (band.hi - band.lo) * u;
  };
  std::vector<engine::BatchNode> nodes(6);
  engine::RunSpec& grid = nodes[0].spec;
  grid.kind = engine::CellKind::kSrGrid;
  grid.mc.params = params;
  grid.grid_count = shape.grid_count;
  grid.grid_denom = shape.grid_count + 1;
  grid.grid_offset = unit(mix(args.seed, 19, client, k));

  engine::RunSpec& analytic = nodes[1].spec;
  analytic.kind = engine::CellKind::kAnalyticSr;
  analytic.mc.params = params;
  analytic.mc.p_star = p_at(1);

  for (std::uint64_t n = 2; n < 6; ++n) {
    engine::RunSpec& mc = nodes[n].spec;
    mc.kind = engine::CellKind::kMc;
    mc.mc.params = params;
    mc.mc.p_star = p_at(n);
    mc.mc.config.seed = mix(args.seed, 30 + n, client, k);
    if (n < 4) {
      mc.mc.evaluator = sim::McEvaluator::kModel;
      mc.mc.config.samples = std::size_t{1} << 26;
      mc.mc.config.target_half_width = shape.model_hw;
      mc.mc.config.antithetic = mc.mc.config.control_variate = (n == 3);
    } else {
      mc.mc.evaluator = sim::McEvaluator::kProtocol;
      mc.mc.config.samples = std::size_t{1} << 20;
      mc.mc.config.target_half_width = shape.protocol_hw;
    }
    nodes[n].deps = {0};
  }
  for (engine::BatchNode& node : nodes) {
    node.spec.label = std::string("swapbench:") + cell_kind(node.spec);
  }
  return nodes;
}

/// Whether client `client`'s job k re-submits an earlier job: the
/// repeats_per_10 positions of each block of ten with the smallest seeded
/// keys.
bool is_repeat(std::uint64_t seed, const ServiceShape& shape,
               std::uint64_t client, std::uint64_t k) {
  const std::uint64_t block = k / 10 * 10;
  const std::uint64_t key = mix(seed, 40, client, k);
  int smaller = 0;
  for (std::uint64_t j = block; j < block + 10; ++j) {
    smaller += mix(seed, 40, client, j) < key ? 1 : 0;
  }
  return smaller < shape.repeats_per_10;
}

struct JobSample {
  std::uint64_t id = 0;  ///< client << 32 | job index
  bool repeat = false;
  double latency_s = 0.0;
  double first_cell_s = 0.0;
};

struct ServicePass {
  std::vector<JobSample> jobs;
  double wall_s = 0.0;  ///< time the clients ran, summed over lifetimes
  /// The stats op's reply from each daemon lifetime.
  std::vector<std::string> stats_json;
  /// The first fresh jobs by id, for the eval-share probe.
  std::map<std::uint64_t, std::vector<engine::BatchNode>> fresh;
  /// The first cells of fresh jobs, for the engine probes.
  std::vector<engine::RunSpec> specs;
  std::vector<engine::RunResult> results;
  /// Totals over every fresh cell.
  double model_samples = 0.0;
  double model_rounds = 0.0;
  double protocol_samples = 0.0;
};

/// The daemon's deployment defaults (ServiceConfig, as swapgamed runs it)
/// apart from the worker count and a disk cache dir under --tmp.
service::ServiceConfig service_config(const Args& args,
                                      const ServiceShape& shape,
                                      const std::string& tag) {
  service::ServiceConfig sc;
  sc.socket_path = args.tmp + "/" + tag + ".sock";
  sc.threads = shape.workers;
  sc.cache_dir = args.tmp + "/" + tag + "-cache";
  return sc;
}

/// One client connection and its recent fresh jobs.
struct ServiceClient {
  service::Client client;
  std::uint64_t next_job = 0;
  std::deque<std::vector<engine::BatchNode>> history;
  /// The result entries each history job returned on its first run.
  std::deque<std::vector<std::string>> entries;
};

/// One closed-loop pass over a fresh cache dir: `clients` connections,
/// each submitting its next job as soon as the previous one is done, for
/// `seconds` of client time.  The daemon is restarted over the cache dir
/// every shape.jobs_per_lifetime jobs; `between_lifetimes` runs after
/// each lifetime, outside the timed client work.
template <typename F>
ServicePass run_service_pass(const Args& args, const ServiceShape& shape,
                             const model::FeasibleBand& band,
                             const std::string& tag, double seconds,
                             Report& report, F&& between_lifetimes) {
  constexpr std::size_t kKeptFresh = 16;
  constexpr std::size_t kKeptCells = 64;
  const service::ServiceConfig config = service_config(args, shape, tag);
  std::filesystem::remove_all(config.cache_dir);
  ServicePass pass;
  std::vector<ServiceClient> clients(shape.clients);
  std::atomic<std::uint64_t> lifetime_jobs{0};
  std::mutex mutex;  // guards pass and report across client threads

  const auto client_loop = [&](int c, Clock::time_point begin) {
    ServiceClient& state = clients[c];
    while (pass.wall_s + seconds_since(begin) < seconds &&
           lifetime_jobs.fetch_add(1) < shape.jobs_per_lifetime) {
      const std::uint64_t k = state.next_job++;
      const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | k;
      const bool repeat =
          !state.history.empty() && is_repeat(args.seed, shape, c, k);
      const std::size_t source =
          repeat ? mix(args.seed, 41, c, k) % state.history.size() : 0;
      const std::vector<engine::BatchNode> nodes =
          repeat ? state.history[source] : fresh_job(args, shape, band, c, k);

      service::Client::SubmitOutcome outcome;
      JobSample sample;
      sample.id = id;
      sample.repeat = repeat;
      Span span("service.Client.submit", repeat ? "repeat" : "fresh", id);
      bool first = true;
      const Status st = state.client.submit(
          nodes, &outcome, [&](const service::Client::CellUpdate&) {
            if (!first) return;
            first = false;
            sample.first_cell_s = seconds_since(span.start());
          });
      sample.latency_s = span.finish();

      std::vector<std::string> got;
      for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        got.push_back(outcome.results[i].to_entry(nodes[i].spec.hash()));
      }
      std::lock_guard<std::mutex> lock(mutex);
      const bool ok = st.is_ok() && outcome.failed_cells == 0 &&
                      outcome.results.size() == nodes.size();
      report.check("service.job_accepted_all_cells_ok", ok, st.to_string());
      if (repeat) {
        report.check("service.repeat_served_from_cache",
                     outcome.cached_cells == nodes.size());
        report.check("service.repeat_entries_byte_identical",
                     got == state.entries[source]);
      } else if (ok) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          const engine::RunResult& r = outcome.results[i];
          const std::string kind = cell_kind(nodes[i].spec);
          if (kind == "mc_model") {
            pass.model_samples += static_cast<double>(r.samples);
            pass.model_rounds += static_cast<double>(r.rounds);
          } else if (kind == "mc_protocol") {
            pass.protocol_samples += static_cast<double>(r.samples);
          }
          if (pass.specs.size() < kKeptCells) {
            pass.specs.push_back(nodes[i].spec);
            pass.results.push_back(r);
          }
        }
        if (pass.fresh.size() < kKeptFresh) pass.fresh.emplace(id, nodes);
        state.history.push_back(nodes);
        state.entries.push_back(std::move(got));
        if (state.history.size() > shape.history) {
          state.history.pop_front();
          state.entries.pop_front();
        }
      }
      pass.jobs.push_back(sample);
      if (!ok) return;
    }
  };

  while (pass.wall_s < seconds) {
    service::Daemon daemon(config);
    bool ok = report.check("service.daemon_start", daemon.start().is_ok());
    for (ServiceClient& c : clients) {
      const Status st = c.client.connect(daemon.socket_path());
      ok = report.check("service.client_connect", st.is_ok(), st.to_string()) &&
           ok;
    }
    if (!ok) break;
    lifetime_jobs = 0;
    const Clock::time_point begin = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < shape.clients; ++c) {
      threads.emplace_back(client_loop, c, begin);
    }
    for (std::thread& t : threads) t.join();
    pass.wall_s += seconds_since(begin);

    std::string stats;
    if (clients[0].client.server_stats(&stats).is_ok()) {
      pass.stats_json.push_back(stats);
    }
    for (ServiceClient& c : clients) c.client.close();
    daemon.stop();
    if (report.failed() > 0) break;
    between_lifetimes();
  }
  std::filesystem::remove_all(config.cache_dir);
  return pass;
}

std::vector<double> latencies(const ServicePass& pass, int which) {
  std::vector<double> out;
  for (const JobSample& j : pass.jobs) {
    if (which < 0 || j.repeat == (which == 1)) out.push_back(j.latency_s);
  }
  return out;
}

/// A counter from the stats op's {"engine":{...},"daemon":{...}} object,
/// summed over the pass's daemon lifetimes; -1 when a reply lacks it.
double stats_counter(const ServicePass& pass, const char* group,
                     const char* name) {
  double total = 0.0;
  for (const std::string& json : pass.stats_json) {
    obs::json::Value root;
    if (!obs::json::parse(json, root).is_ok()) return -1.0;
    const obs::json::Value* g = root.find(group);
    const obs::json::Value* v = g == nullptr ? nullptr : g->find(name);
    if (v == nullptr || !v->is_number()) return -1.0;
    total += v->as_number();
  }
  return total;
}

int run_service(const Args& args, Report& report) {
  ServiceShape shape;
  if (args.smoke) {
    shape.grid_count = 2;
    shape.model_hw = 1e-2;
    shape.protocol_hw = 0.08;
    shape.jobs_per_lifetime = 12;
  }
  const double seconds = args.seconds;
  const model::SwapParams params = model::SwapParams::table3_defaults();

  // Set-up: the feasible band the jobs' P* values are drawn from (an
  // uncached scan of BasicGame t1 decisions), daemon start (socket,
  // dispatcher, evaluation pool) and every client's connect and version
  // handshake.  Sampled before the pass and after each daemon lifetime in
  // it, on a daemon of its own.
  struct Rig {
    std::unique_ptr<service::Daemon> daemon;
    std::vector<service::Client> clients;  // closed before the daemon stops
  };
  SetupTimer setup;
  model::FeasibleBand band;
  const service::ServiceConfig setup_config =
      service_config(args, shape, "setup");
  const auto set_up = [&] {
    band = model::alice_feasible_band(params);
    Rig rig;
    rig.daemon = std::make_unique<service::Daemon>(setup_config);
    bool ok = rig.daemon->start().is_ok();
    rig.clients = std::vector<service::Client>(shape.clients);
    for (service::Client& client : rig.clients) {
      ok = ok && client.connect(rig.daemon->socket_path()).is_ok();
    }
    report.check("service.setup_connects", ok);
    return rig;
  };
  setup.sample(kServiceSetupReps, set_up);
  if (!report.check("service.band_viable", band.viable)) return 1;

  const ServicePass pass =
      run_service_pass(args, shape, band, "run", seconds, report,
                       [&] { setup.sample(kServiceSetupReps, set_up); });
  std::filesystem::remove_all(setup_config.cache_dir);
  const std::vector<double> all = latencies(pass, -1);
  const double p50 = median(all);
  const double p95 = percentile(all, 0.95);
  std::size_t above = 0;
  for (const double x : all) above += x > p95 ? 1 : 0;
  const double jobs_per_s = static_cast<double>(all.size()) / pass.wall_s;
  report.metric("setup_s", setup.median_s(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", jobs_per_s, "1/s");
  report.metric("latency_ms", p50 * 1e3, "ms");
  report.metric("job_p50_ms", p50 * 1e3, "ms");
  report.metric("job_p95_ms", p95 * 1e3, "ms");
  report.metric("jobs_per_s", jobs_per_s, "1/s");
  report.metric("service.jobs", static_cast<double>(all.size()), "count");
  report.metric("service.jobs_above_p95", static_cast<double>(above), "count");
  report.metric("service.repeat_jobs",
                static_cast<double>(latencies(pass, 1).size()), "count");
  if (!args.smoke) {
    report.check("service.ten_samples_above_p95", above >= 10,
                  std::to_string(above));
  }
  if (!args.trace) return 0;

  // Traced pass: the same closed loop under spans (fresh daemon and
  // cache), then the eval-share probe and the daemons' stats counters.
  Tracer tracer;
  g_tracer = &tracer;
  const ServicePass traced =
      run_service_pass(args, shape, band, "traced", seconds, report, [] {});
  const std::vector<double> first = [&] {
    std::vector<double> out;
    for (const JobSample& j : traced.jobs) out.push_back(j.first_cell_s);
    return out;
  }();
  report.metric("trace.overhead_ratio", median(latencies(traced, -1)) / p50,
                "ratio");
  report.metric("service.warm_job_ms", median(latencies(traced, 1)) * 1e3,
                "ms");
  report.metric("service.cold_job_ms", median(latencies(traced, 0)) * 1e3,
                "ms");
  report.metric("service.first_cell_ms", median(first) * 1e3, "ms");

  // eval_share: the direct evaluate_cell time of a fresh job's cells over
  // that job's latency through the daemon (the first fresh jobs).
  std::vector<double> shares;
  for (const JobSample& j : traced.jobs) {
    if (traced.fresh.count(j.id) == 0) continue;
    double eval_s = 0.0;
    for (const engine::BatchNode& node : traced.fresh.at(j.id)) {
      Span span("engine.evaluate_cell", cell_kind(node.spec), j.id);
      const engine::RunResult r = engine::evaluate_cell(node.spec);
      eval_s += span.finish();
    }
    shares.push_back(eval_s / j.latency_s);
  }
  report.metric("service.eval_share", median(shares), "ratio");
  for (const char* kind : {"sr_grid", "analytic_sr", "mc_model", "mc_protocol"}) {
    report.metric(std::string("engine.cell_s.") + kind,
                  median(tracer.durations("engine.evaluate_cell", kind)), "s");
  }

  // Counters summed over the stats replies of every daemon lifetime.
  report.check("service.stats_op",
               stats_counter(traced, "engine", "cells_total") > 0.0);
  const double cells_total = stats_counter(traced, "engine", "cells_total");
  const double memory_hits = stats_counter(traced, "engine", "memory_hits");
  const double disk_hits = stats_counter(traced, "engine", "disk_hits");
  report.metric("engine.cells_run",
                stats_counter(traced, "engine", "cells_run"), "count");
  report.metric("engine.cache.memory_hits", memory_hits, "count");
  report.metric("engine.cache.disk_hits", disk_hits, "count");
  report.metric("engine.cache.hit_ratio",
                (memory_hits + disk_hits) / cells_total, "ratio");
  report.metric("service.jobs_rejected",
                stats_counter(traced, "daemon", "jobs_rejected"), "count");
  report.metric("service.cells_failed",
                stats_counter(traced, "daemon", "cells_failed"), "count");

  report.metric("sim.model.samples", traced.model_samples, "count");
  report.metric("sim.model.rounds", traced.model_rounds, "count");
  report.metric("sim.protocol.samples", traced.protocol_samples, "count");
  zero_counts(report, kPopulationCounts);

  std::vector<std::pair<model::SwapParams, double>> points;
  for (const engine::RunSpec& spec : traced.specs) {
    if (spec.kind == engine::CellKind::kMc) {
      points.emplace_back(spec.mc.params, spec.mc.p_star);
    }
    if (points.size() >= 16) break;
  }
  probe_layers(args, report, traced.specs, traced.results, points);
  g_tracer = nullptr;
  if (!args.spans.empty()) tracer.write_jsonl(args.spans);
  return 0;
}

// ---------------------------------------------------------------------------

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.tmp.empty() || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: swapbench <population|accuracy_sweep|service> "
                 "--seed N --seconds S --trace 0|1 --tmp DIR [--spans FILE] "
                 "[--smoke]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(args->tmp);
    print_stamp(*args);
    Report report;
    int rc = 2;
    if (args->workload == "population") {
      rc = run_population(*args, report);
    } else if (args->workload == "accuracy_sweep") {
      rc = run_accuracy_sweep(*args, report);
    } else if (args->workload == "service") {
      rc = run_service(*args, report);
    } else {
      std::fprintf(stderr, "swapbench: unknown workload '%s'\n",
                   args->workload.c_str());
      return 2;
    }
    report.finish();
    return rc != 0 ? rc : (report.failed() == 0 ? 0 : 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swapbench: %s\n", e.what());
    return 2;
  }
}
