#include "job.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace swapgame::engine {

Status parse_job(const obs::json::Value& root, std::vector<BatchNode>* nodes) {
  if (!root.is_object()) {
    return Status::invalid_spec("job must be a JSON object");
  }
  const obs::json::Value* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array() || cells->as_array().empty()) {
    return Status::invalid_spec("job requires a non-empty 'cells' array");
  }
  const std::size_t n = cells->as_array().size();
  nodes->assign(n, BatchNode{});
  for (std::size_t i = 0; i < n; ++i) {
    const Status status =
        RunSpec::from_json(cells->as_array()[i], &(*nodes)[i].spec);
    if (!status.is_ok()) {
      return Status::from_token(to_string(status.code()),
                                "cell " + std::to_string(i) + ": " +
                                    status.message());
    }
  }

  const obs::json::Value* deps = root.find("deps");
  if (deps == nullptr) return Status::ok();
  if (!deps->is_array() || deps->as_array().size() != n) {
    return Status::invalid_spec(
        "'deps' must be an array with one entry per cell");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const obs::json::Value& entry = deps->as_array()[i];
    if (!entry.is_array()) {
      return Status::invalid_spec("deps entry " + std::to_string(i) +
                                  " is not an array");
    }
    for (const obs::json::Value& dep : entry.as_array()) {
      std::uint64_t index = 0;
      try {
        // Throws on a non-number and on any literal but an unsigned
        // integer that fits: negative, fractional, exponent, too large.
        index = dep.as_u64();
      } catch (const std::logic_error&) {
        return Status::invalid_spec("deps entry " + std::to_string(i) +
                                    ": dependency is not an index");
      }
      (*nodes)[i].deps.push_back(static_cast<std::size_t>(index));
    }
  }
  return Status::ok();
}

std::string render_job(const std::vector<BatchNode>& nodes) {
  std::string out = "\"cells\":[";
  bool any_deps = false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += nodes[i].spec.to_json();
    any_deps = any_deps || !nodes[i].deps.empty();
  }
  out += ']';
  if (!any_deps) return out;
  out += ",\"deps\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    for (std::size_t k = 0; k < nodes[i].deps.size(); ++k) {
      if (k > 0) out += ',';
      out += std::to_string(nodes[i].deps[k]);
    }
    out += ']';
  }
  out += ']';
  return out;
}

Status JobSchedule::build(const std::vector<BatchNode>& nodes,
                          JobSchedule* out, std::vector<std::size_t>* order) {
  const std::size_t n = nodes.size();
  JobSchedule schedule;
  schedule.unmet_.resize(n);
  schedule.dependents_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t d : nodes[i].deps) {
      if (d >= n) {
        return Status::invalid_spec(
            "cell " + std::to_string(i) + ": dependency " +
            std::to_string(d) + " out of range (job has " +
            std::to_string(n) + " cells)");
      }
      schedule.dependents_[d].push_back(i);
    }
    schedule.unmet_[i] = nodes[i].deps.size();
  }

  // Kahn pass over a copy of the counts: a cell that never becomes ready
  // sits on a cycle or behind one.
  std::vector<std::size_t> unmet = schedule.unmet_;
  std::vector<std::size_t> kahn = schedule.ready();
  kahn.reserve(n);
  for (std::size_t head = 0; head < kahn.size(); ++head) {
    for (const std::size_t d : schedule.dependents_[kahn[head]]) {
      if (--unmet[d] == 0) kahn.push_back(d);
    }
  }
  if (kahn.size() != n) {
    std::size_t stuck = 0;
    while (unmet[stuck] == 0) ++stuck;
    return Status::invalid_spec("dependency cycle: cell " +
                                std::to_string(stuck) +
                                " can never become ready");
  }
  *out = std::move(schedule);
  if (order != nullptr) *order = std::move(kahn);
  return Status::ok();
}

void JobSchedule::add_dep(std::size_t cell, std::size_t dep) {
  ++unmet_[cell];
  dependents_[dep].push_back(cell);
}

std::vector<std::size_t> JobSchedule::ready() const {
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < unmet_.size(); ++i) {
    if (unmet_[i] == 0) cells.push_back(i);
  }
  return cells;
}

std::vector<std::size_t> JobSchedule::complete(std::size_t cell) {
  std::vector<std::size_t> now_ready;
  for (const std::size_t d : dependents_[cell]) {
    if (--unmet_[d] == 0) now_ready.push_back(d);
  }
  return now_ready;
}

}  // namespace swapgame::engine
