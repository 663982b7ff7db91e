#include "metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "json.hpp"
#include "trace.hpp"  // format_json_number / append_json_escaped

namespace swapgame::obs {

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      bins_(bins) {
  if (!(lo < hi) || !std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("HistogramMetric: need finite lo < hi");
  }
  if (bins == 0) {
    throw std::invalid_argument("HistogramMetric: need at least one bin");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bins);
}

void HistogramMetric::observe(double x) noexcept {
  if (std::isnan(x) || x < lo_) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x >= hi_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::size_t bin = static_cast<std::size_t>((x - lo_) / width_);
  if (bin >= bins_) bin = bins_ - 1;  // guard the x -> hi rounding edge
  counts_[bin].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t HistogramMetric::bin_count(std::size_t bin) const {
  if (bin >= bins_) {
    throw std::out_of_range("HistogramMetric::bin_count: bin out of range");
  }
  return counts_[bin].load(std::memory_order_relaxed);
}

std::uint64_t HistogramMetric::total() const noexcept {
  std::uint64_t total = underflow() + overflow();
  for (std::size_t i = 0; i < bins_; ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, double lo,
                                            double hi, std::size_t bins) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (it->second.lo() != lo || it->second.hi() != hi ||
        it->second.bins() != bins) {
      throw std::invalid_argument(
          "MetricsRegistry: histogram re-registered with a different shape: " +
          std::string(name));
    }
    return it->second;
  }
  return histograms_
      .try_emplace(std::string(name), lo, hi, bins)
      .first->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter.value();
  }
  for (const auto& [name, hist] : histograms_) {
    Snapshot::Histogram h;
    h.lo = hist.lo();
    h.hi = hist.hi();
    h.underflow = hist.underflow();
    h.overflow = hist.overflow();
    h.counts.reserve(hist.bins());
    for (std::size_t i = 0; i < hist.bins(); ++i) {
      h.counts.push_back(hist.bin_count(i));
    }
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

std::string MetricsRegistry::to_json(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": {\"lo\": " + format_json_number(h.lo) +
           ", \"hi\": " + format_json_number(h.hi) +
           ", \"underflow\": " + std::to_string(h.underflow) +
           ", \"overflow\": " + std::to_string(h.overflow) + ", \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("parse_snapshot: " + what);
}

const json::Value& member(const json::Value& object, std::string_view key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) malformed("missing \"" + std::string(key) + "\"");
  return *value;
}

MetricsRegistry::Snapshot::Histogram parse_histogram(const json::Value& v) {
  MetricsRegistry::Snapshot::Histogram h;
  for (const auto& [key, field] : v.as_object()) {
    if (key == "lo" || key == "hi") {
      if (!json::number_or_marker(field, key == "lo" ? &h.lo : &h.hi)) {
        malformed("\"" + key + "\" is not a number");
      }
    } else if (key == "underflow") {
      h.underflow = field.as_u64();
    } else if (key == "overflow") {
      h.overflow = field.as_u64();
    } else if (key == "counts") {
      for (const json::Value& count : field.as_array()) {
        h.counts.push_back(count.as_u64());
      }
    } else {
      malformed("unknown key: " + key);
    }
  }
  return h;
}

}  // namespace

MetricsRegistry::Snapshot MetricsRegistry::parse_snapshot(
    const std::string& text) {
  json::Value root;
  const Status status = json::parse(text, root);
  if (!status.is_ok()) malformed(status.message());
  Snapshot snap;
  try {
    if (root.as_object().size() != 2) {
      malformed("expected exactly \"counters\" and \"histograms\"");
    }
    for (const auto& [name, value] : member(root, "counters").as_object()) {
      snap.counters[name] = value.as_u64();
    }
    for (const auto& [name, value] : member(root, "histograms").as_object()) {
      snap.histograms[name] = parse_histogram(value);
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::logic_error& e) {
    // json::Value accessors throw logic_error on a wrong kind or a
    // non-u64 literal (negative, fractional, out of range).
    malformed(e.what());
  }
  return snap;
}

}  // namespace swapgame::obs
