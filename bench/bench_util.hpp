// Shared output helpers for the figure/table reproduction binaries.
//
// Each bench prints (1) a header identifying the paper artifact it
// regenerates, (2) the data series as labeled CSV blocks (directly
// plottable), and (3) a CHECK line per qualitative claim the paper makes
// about that artifact, evaluated on the data just produced.  A bench exits
// nonzero if any claim fails, so `for b in build/bench/*; do $b; done`
// doubles as a reproduction gate.
//
// Timing telemetry: Report measures wall-clock (steady_clock) time per CSV
// block -- from its csv_begin to the next csv_begin or to exit_code() --
// plus the binary's total runtime.  exit_code() appends TIME lines after
// the CHECK lines (so the data blocks above stay byte-comparable across
// runs) and writes BENCH_<slug>.json into the current directory with the
// same numbers for machine consumption, stamped with the host that
// produced them.  See docs/PERF.md for the format.
#pragma once

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "math/simd.hpp"

// Set by bench/CMakeLists.txt from the active build configuration.
#ifndef SWAPGAME_BUILD_TYPE
#define SWAPGAME_BUILD_TYPE "unknown"
#endif

namespace swapgame::bench {

/// Output directory for BENCH_/TRACE_ artifacts: `SWAPGAME_BENCH_DIR` when
/// set (created on demand, best effort), the current directory otherwise.
/// Lets CI and baseline refreshes redirect telemetry to a committed path
/// (bench/baselines/) instead of losing it to the gitignored cwd.
inline std::string out_path(const std::string& filename) {
  const char* dir = std::getenv("SWAPGAME_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  std::string prefix(dir);
  // Recursive mkdir (POSIX).  Component boundaries skip the leading '/'
  // of absolute paths and duplicate separators (mkdir("") / mkdir("/")
  // would fail spuriously); EEXIST is fine.  Rather than checking each
  // mkdir, the stat below decides whether the full path is usable.
  for (std::size_t pos = 1; pos <= prefix.size(); ++pos) {
    if (pos == prefix.size() || prefix[pos] == '/') {
      const std::string component = prefix.substr(0, pos);
      if (component.empty() || component == "/") continue;
      ::mkdir(component.c_str(), 0777);
    }
  }
  struct ::stat st {};
  if (::stat(prefix.c_str(), &st) != 0) {
    std::perror(("swapgame: SWAPGAME_BENCH_DIR " + prefix).c_str());
    std::fprintf(stderr, "swapgame: falling back to the current directory\n");
    return filename;
  }
  if (!S_ISDIR(st.st_mode)) {
    errno = ENOTDIR;
    std::perror(("swapgame: SWAPGAME_BENCH_DIR " + prefix).c_str());
    std::fprintf(stderr, "swapgame: falling back to the current directory\n");
    return filename;
  }
  if (prefix.back() != '/') prefix.push_back('/');
  return prefix + filename;
}

/// Sample-count scaling for smoke runs: `SWAPGAME_MC_SCALE=k` divides
/// protocol-level Monte-Carlo budgets by k (>= 1).  Benches apply it via
/// scaled() to their expensive protocol loops ONLY -- model-level metric
/// blocks (samples-to-target-CI) stay at full scale so the numbers CI
/// gates on are machine- and scale-independent.
inline std::size_t mc_scale() {
  const char* env = std::getenv("SWAPGAME_MC_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

/// `n / mc_scale()`, floored at `floor_n` so scaled runs stay meaningful.
inline std::size_t scaled(std::size_t n, std::size_t floor_n = 64) {
  const std::size_t s = n / mc_scale();
  return s > floor_n ? s : floor_n;
}

/// The machine and build a bench ran on.  Every BENCH_<slug>.json carries
/// it as its "host" object, so a timing metric is never read without the
/// CPU, core count, compiler, build type and SIMD level behind it.
struct HostStamp {
  std::string cpu;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string simd;
};

inline HostStamp host_stamp() {
  HostStamp host;
  host.cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    if (colon != std::string::npos && start != std::string::npos) {
      host.cpu = line.substr(start);
    }
    break;
  }
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = SWAPGAME_BUILD_TYPE;
  host.simd = math::simd::to_string(math::simd::active_level());
  return host;
}

/// Tracks claim failures for the process exit code and wall-clock timing
/// per CSV block.
class Report {
 public:
  Report(const std::string& artifact, const std::string& description)
      : artifact_(artifact), start_(Clock::now()) {
    std::printf("==============================================================\n");
    std::printf("%s\n", artifact.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("==============================================================\n");
  }

  /// Begins a CSV block: prints "# <name>" then the header row.  Also
  /// closes the timing window of the previous block and opens this one's,
  /// so per-block times cover everything computed while the block is open.
  void csv_begin(const std::string& name, const std::string& header) {
    close_block();
    block_name_ = name;
    block_start_ = Clock::now();
    std::printf("\n# %s\n%s\n", name.c_str(), header.c_str());
  }

  void csv_row(const std::string& row) { std::printf("%s\n", row.c_str()); }

  /// Evaluates a qualitative claim from the paper.
  void claim(const std::string& text, bool holds) {
    std::printf("CHECK %-60s %s\n", text.c_str(), holds ? "[OK]" : "[FAIL]");
    if (!holds) ++failures_;
  }

  void note(const std::string& text) { std::printf("NOTE  %s\n", text.c_str()); }

  /// Records a named scalar metric (e.g. samples-to-target-CI).  Metrics
  /// are printed as METRIC lines at finalize and land in a "metrics"
  /// object in BENCH_<slug>.json, where tools/bench_gate.py compares them
  /// against the committed baselines.  Only DETERMINISTIC quantities
  /// belong here (sample counts, estimator half-widths) -- wall clock goes
  /// in the TIME blocks, which the comparison tooling ignores.
  void metric(const std::string& name, double value) {
    metrics_.push_back({name, value, /*machine_dependent=*/false});
  }

  /// Records a MACHINE-DEPENDENT named scalar (throughput, peak RSS).  It
  /// lands in the BENCH_<slug>.json "metrics" object like metric() -- so
  /// tools/bench_gate.py can floor-gate it against a conservative committed
  /// baseline -- but prints as a TIME line instead of a METRIC line, which
  /// keeps the CI stdout determinism diffs (they exclude ^TIME) blind to
  /// numbers that legitimately differ between runs and machines.
  void time_metric(const std::string& name, double value) {
    metrics_.push_back({name, value, /*machine_dependent=*/true});
  }

  /// A wall-clock reading printed as a TIME line like time_metric(), but
  /// kept out of BENCH_<slug>.json: for readings that exist on some hosts
  /// only (an AVX-512 rate), which a committed baseline must never name.
  void time_line(const std::string& name, double value) {
    metrics_.push_back({name, value, /*machine_dependent=*/true,
                        /*in_json=*/false});
  }

  /// Exit code for main(): 0 iff all claims held.  The first call closes
  /// the last CSV block, prints the TIME lines and writes BENCH_<slug>.json.
  [[nodiscard]] int exit_code() {
    finalize();
    return failures_ == 0 ? 0 : 1;
  }

  /// Writes a structured trace stream (obs::TraceCollector::jsonl) to
  /// TRACE_<slug>.jsonl next to BENCH_<slug>.json, so a bench run leaves
  /// both its timing telemetry and a replayable event sample behind.  See
  /// docs/OBSERVABILITY.md for the line schema.
  void write_trace_jsonl(const std::string& jsonl) {
    const std::string path = out_path("TRACE_" + slug() + ".jsonl");
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::printf("TRACE wrote %s (%zu bytes)\n", path.c_str(), jsonl.size());
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct BlockTime {
    std::string name;
    double seconds = 0.0;
  };

  struct Metric {
    std::string name;
    double value = 0.0;
    /// time_metric() entries: printed under TIME instead of METRIC.
    bool machine_dependent = false;
    /// time_line() entries: printed only, never written to the JSON.
    bool in_json = true;
  };

  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void close_block() {
    if (block_name_.empty()) return;
    blocks_.push_back({std::move(block_name_), seconds_since(block_start_)});
    block_name_.clear();
  }

  /// Slug for the JSON filename: the artifact prefix before " -- "
  /// lowercased with runs of non-alphanumerics collapsed to '_'
  /// ("Fig. 6 -- ..." -> "fig_6", "Table III / Eq. (29) -- ..." ->
  /// "table_iii_eq_29").
  [[nodiscard]] std::string slug() const {
    std::string head = artifact_;
    if (const auto cut = head.find(" -- "); cut != std::string::npos) {
      head.resize(cut);
    }
    std::string out;
    for (const char c : head) {
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
        out.push_back(c);
      } else if (c >= 'A' && c <= 'Z') {
        out.push_back(static_cast<char>(c - 'A' + 'a'));
      } else if (!out.empty() && out.back() != '_') {
        out.push_back('_');
      }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out.empty() ? std::string("bench") : out;
  }

  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    close_block();
    const double total = seconds_since(start_);

    std::printf("\n");
    for (const Metric& m : metrics_) {
      if (!m.machine_dependent) {
        std::printf("METRIC %-59s %14.6f\n", m.name.c_str(), m.value);
      }
    }
    for (const Metric& m : metrics_) {
      if (m.machine_dependent) {
        std::printf("TIME  %-60s %14.6f\n", m.name.c_str(), m.value);
      }
    }
    for (const BlockTime& block : blocks_) {
      std::printf("TIME  %-60s %10.3f s\n", block.name.c_str(), block.seconds);
    }
    std::printf("TIME  %-60s %10.3f s\n", "total", total);

    const std::string path = out_path("BENCH_" + slug() + ".json");
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\n  \"artifact\": \"%s\",\n",
                   json_escape(artifact_).c_str());
      std::fprintf(f, "  \"failures\": %d,\n", failures_);
      const HostStamp host = host_stamp();
      std::fprintf(f,
                   "  \"host\": {\"cpu\": \"%s\", \"nproc\": %u, "
                   "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                   "\"simd\": \"%s\"},\n",
                   json_escape(host.cpu).c_str(), host.nproc,
                   json_escape(host.compiler).c_str(),
                   json_escape(host.build_type).c_str(), host.simd.c_str());
      std::fprintf(f, "  \"metrics\": {");
      const char* sep = "";
      for (const Metric& m : metrics_) {
        if (!m.in_json) continue;
        std::fprintf(f, "%s\n    \"%s\": %.6f", sep,
                     json_escape(m.name).c_str(), m.value);
        sep = ",";
      }
      std::fprintf(f, "%s},\n", *sep == '\0' ? "" : "\n  ");
      std::fprintf(f, "  \"total_seconds\": %.6f,\n  \"blocks\": [", total);
      for (std::size_t i = 0; i < blocks_.size(); ++i) {
        std::fprintf(f, "%s\n    {\"name\": \"%s\", \"seconds\": %.6f}",
                     i == 0 ? "" : ",", json_escape(blocks_[i].name).c_str(),
                     blocks_[i].seconds);
      }
      std::fprintf(f, "\n  ]\n}\n");
      std::fclose(f);
      std::printf("TIME  wrote %s\n", path.c_str());
    }
  }

  std::string artifact_;
  Clock::time_point start_;
  std::string block_name_;
  Clock::time_point block_start_;
  std::vector<BlockTime> blocks_;
  std::vector<Metric> metrics_;
  int failures_ = 0;
  bool finalized_ = false;
};

/// printf-style float formatting into std::string.  Never truncates: if the
/// formatted output exceeds the stack buffer, the string is regrown to
/// vsnprintf's reported length and formatted again.
inline std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list retry;
  va_copy(retry, args);
  char buffer[512];
  const int needed = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (needed < 0) {
    va_end(retry);
    return {};
  }
  if (static_cast<std::size_t>(needed) < sizeof(buffer)) {
    va_end(retry);
    return buffer;
  }
  std::string grown(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(grown.data(), grown.size() + 1, format, retry);
  va_end(retry);
  return grown;
}

}  // namespace swapgame::bench
