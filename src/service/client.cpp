#include "client.hpp"

#include <utility>

#include "obs/json.hpp"

namespace swapgame::service {

namespace {

using obs::json::Value;

std::string request_head(std::string_view op, std::uint64_t request_id) {
  std::string out = "{\"proto\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"op\":\"";
  out += op;
  out += "\",\"id\":";
  out += std::to_string(request_id);
  return out;
}

/// Decodes the code/message pair every rejected/error event carries.
Status status_from_event(const Value& root) {
  const Value* code = root.find("code");
  const Value* message = root.find("message");
  return Status::from_token(
      code != nullptr && code->is_string() ? code->as_string() : "internal",
      message != nullptr && message->is_string() ? message->as_string()
                                                 : "");
}

}  // namespace

Status Client::connect(const std::string& socket_path) {
  if (socket_.valid()) return Status::unavailable("already connected");
  int fd = -1;
  Status status = connect_unix(socket_path, &fd);
  if (!status.is_ok()) return status;
  socket_.adopt(fd);

  std::string event;
  Value payload;
  status = await_event({wire::kEvHello}, &event, &payload, nullptr);
  if (!status.is_ok()) {
    socket_.close();
    return status;
  }
  const Value* spec_version = payload.find("spec_version");
  if (spec_version == nullptr || !spec_version->is_number()) {
    socket_.close();
    return Status::protocol_error("hello carries no spec_version");
  }
  if (spec_version->as_number() !=
      static_cast<double>(engine::kRunSpecSchemaVersion)) {
    const Status skew = Status::unsupported_version(
        "daemon speaks RunSpec schema v" + spec_version->raw_number() +
        ", this client speaks v" +
        std::to_string(engine::kRunSpecSchemaVersion));
    socket_.close();
    return skew;
  }
  return Status::ok();
}

Status Client::submit(const std::vector<engine::BatchNode>& nodes,
                      SubmitOutcome* outcome, const ProgressFn& progress) {
  if (!socket_.valid()) return Status::unavailable("not connected");
  if (nodes.empty()) return Status::invalid_spec("job has no cells");
  const std::size_t n = nodes.size();

  const std::uint64_t request_id = next_request_id_++;
  std::string request = request_head(wire::kOpSubmit, request_id);
  request += ',';
  request += engine::render_job(nodes);
  request += '}';
  Status status = socket_.write_line(request);
  if (!status.is_ok()) return status;

  std::string event;
  Value payload;
  status = await_event({wire::kEvAccepted, wire::kEvRejected}, &event,
                       &payload, nullptr);
  if (!status.is_ok()) return status;
  if (event == wire::kEvRejected) return status_from_event(payload);

  SubmitOutcome result;
  const Value* job_id = payload.find("job");
  if (job_id != nullptr && job_id->is_number()) {
    result.job_id = job_id->as_u64();
  }
  result.cells = n;
  result.results.resize(n);
  result.cached.assign(n, false);
  result.cell_status.assign(n, Status::ok());

  // The daemon binds each result entry to the spec hash it answers for;
  // verifying against OUR hash of the submitted spec closes the loop --
  // codec drift or cache corruption surfaces here, not as silently wrong
  // numbers.
  std::vector<std::string> expected_hashes;
  expected_hashes.reserve(n);
  for (const engine::BatchNode& node : nodes) {
    expected_hashes.push_back(node.spec.hash());
  }
  std::vector<bool> seen(n, false);

  const auto on_cell = [&](const Value& cell) -> Status {
    const Value* index_field = cell.find("index");
    std::uint64_t index = n;
    if (index_field != nullptr && index_field->is_number()) {
      try {
        index = index_field->as_u64();
      } catch (const std::exception&) {
        index = n;
      }
    }
    if (index >= n || seen[index]) {
      return Status::protocol_error(
          "cell event with bad index " +
          (index_field != nullptr ? index_field->raw_number()
                                  : std::string("?")));
    }
    seen[index] = true;

    CellUpdate update;
    update.index = static_cast<std::size_t>(index);
    const Value* cached = cell.find("cached");
    update.cached = cached != nullptr && cached->is_number() &&
                    cached->as_number() == 1.0;
    if (const Value* source = cell.find("source");
        source != nullptr && source->is_string()) {
      update.source = source->as_string();
    }
    if (const Value* entry = cell.find("result")) {
      std::string hash;
      engine::RunResult run_result;
      const Status decoded =
          engine::RunResult::from_json(*entry, &hash, &run_result);
      if (!decoded.is_ok()) {
        return Status::protocol_error("cell " + std::to_string(index) +
                                      ": bad result entry: " +
                                      decoded.to_string());
      }
      if (hash != expected_hashes[index]) {
        return Status::protocol_error(
            "cell " + std::to_string(index) +
            ": result entry answers hash " + hash + ", expected " +
            expected_hashes[index]);
      }
      result.results[index] = std::move(run_result);
    } else {
      update.status = status_from_event(cell);
      if (update.status.is_ok()) {
        return Status::protocol_error("cell " + std::to_string(index) +
                                      " carries neither result nor error");
      }
      result.results[index].complete = false;
      ++result.failed_cells;
    }
    result.cached[index] = update.cached;
    result.cell_status[index] = update.status;
    if (update.cached) ++result.cached_cells;
    if (progress) progress(update);
    return Status::ok();
  };

  status = await_event({wire::kEvDone}, &event, &payload, nullptr, on_cell);
  if (!status.is_ok()) return status;
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) {
      return Status::protocol_error("done arrived before cell " +
                                    std::to_string(i));
    }
  }

  if (outcome != nullptr) *outcome = std::move(result);
  for (std::size_t i = 0; i < n; ++i) {
    const Status& cell_status =
        outcome != nullptr ? outcome->cell_status[i] : result.cell_status[i];
    if (!cell_status.is_ok()) return cell_status;
  }
  return Status::ok();
}

Status Client::ping() {
  if (!socket_.valid()) return Status::unavailable("not connected");
  const Status sent =
      socket_.write_line(request_head(wire::kOpPing, next_request_id_++) +
                         "}");
  if (!sent.is_ok()) return sent;
  std::string event;
  Value payload;
  return await_event({wire::kEvPong}, &event, &payload, nullptr);
}

Status Client::server_stats(std::string* stats_json) {
  if (!socket_.valid()) return Status::unavailable("not connected");
  const Status sent =
      socket_.write_line(request_head(wire::kOpStats, next_request_id_++) +
                         "}");
  if (!sent.is_ok()) return sent;
  std::string event;
  Value payload;
  return await_event({wire::kEvStats}, &event, &payload, stats_json);
}

Status Client::shutdown_server() {
  if (!socket_.valid()) return Status::unavailable("not connected");
  const Status sent = socket_.write_line(
      request_head(wire::kOpShutdown, next_request_id_++) + "}");
  if (!sent.is_ok()) return sent;
  std::string event;
  Value payload;
  const Status status = await_event({wire::kEvBye}, &event, &payload,
                                    nullptr);
  socket_.close();
  return status;
}

Status Client::await_event(
    const std::vector<std::string_view>& terminal, std::string* event,
    Value* payload, std::string* raw_line,
    const std::function<Status(const Value&)>& on_cell) {
  for (;;) {
    std::string line;
    bool eof = false;
    Status status = socket_.read_line(&line, &eof);
    if (!status.is_ok()) return status;
    if (eof) return Status::unavailable("daemon closed the connection");
    if (line.empty()) continue;

    Value root;
    status = obs::json::parse(line, root);
    if (!status.is_ok() || !root.is_object()) {
      return Status::protocol_error("malformed event line: " +
                                    (status.is_ok() ? "not an object"
                                                    : status.message()));
    }
    const Value* proto = root.find("proto");
    if (proto == nullptr || !proto->is_number() ||
        proto->as_number() != static_cast<double>(kProtocolVersion)) {
      return Status::unsupported_version(
          "event protocol version " +
          (proto != nullptr && proto->is_number() ? proto->raw_number()
                                                  : std::string("?")) +
          ", this client speaks v" + std::to_string(kProtocolVersion));
    }
    const Value* name = root.find("event");
    if (name == nullptr || !name->is_string()) {
      return Status::protocol_error("event line carries no 'event' key");
    }
    if (name->as_string() == wire::kEvError) {
      return status_from_event(root);
    }
    if (name->as_string() == wire::kEvCell && on_cell) {
      const Status handled = on_cell(root);
      if (!handled.is_ok()) return handled;
      continue;
    }
    for (const std::string_view candidate : terminal) {
      if (name->as_string() == candidate) {
        *event = name->as_string();
        if (raw_line != nullptr) *raw_line = line;
        *payload = std::move(root);
        return Status::ok();
      }
    }
    return Status::protocol_error("unexpected event '" + name->as_string() +
                                  "'");
  }
}

}  // namespace swapgame::service
