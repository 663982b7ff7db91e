#include "daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "protocol.hpp"

namespace swapgame::service {

namespace {

using obs::json::Value;

std::string event_head(std::string_view event, std::uint64_t request_id) {
  std::string out = "{\"proto\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"event\":\"";
  out += event;
  out += "\",\"id\":";
  out += std::to_string(request_id);
  return out;
}

std::string render_hello() {
  std::string out = "{\"proto\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"event\":\"";
  out += wire::kEvHello;
  out += "\",\"server\":\"swapgamed\",\"spec_version\":";
  out += std::to_string(engine::kRunSpecSchemaVersion);
  out += '}';
  return out;
}

/// rejected/error payload: the Status rendered as code token + message.
std::string render_status_event(std::string_view event,
                                std::uint64_t request_id,
                                const Status& status) {
  std::string out = event_head(event, request_id);
  out += ",\"code\":\"";
  out += to_string(status.code());
  out += "\",\"message\":\"";
  obs::append_json_escaped(out, status.message());
  out += "\"}";
  return out;
}

void append_counter(std::string& out, std::string_view key,
                    std::uint64_t value, bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

/// Reads an optional unsigned envelope field; false on a wrong type.
bool read_u64_field(const Value& root, std::string_view key,
                    std::uint64_t* out) {
  const Value* field = root.find(key);
  if (field == nullptr) return true;
  if (!field->is_number()) return false;
  try {
    *out = field->as_u64();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

/// One connected client.  Lifetime: created by the accept loop, kept
/// alive by connections_ plus any in-flight Job referencing it; the
/// socket dies with the last reference.
struct Daemon::Connection {
  std::uint64_t client_id = 0;
  LineSocket socket;
  std::mutex write_mutex;  ///< serializes event lines onto the socket
  std::thread reader;
  // Everything below is guarded by Daemon::mutex_.
  bool closed = false;  ///< reader finished; safe to reap/join
  bool in_rr = false;   ///< present in Daemon::rr_queue_
  std::vector<std::shared_ptr<Job>> jobs;      ///< active (unfinished)
  std::deque<std::shared_ptr<Job>> ready_jobs;  ///< jobs with ready cells
};

/// One admitted submit request.  All fields below `nodes` are guarded by
/// Daemon::mutex_.
struct Daemon::Job {
  std::shared_ptr<Connection> conn;
  std::uint64_t request_id = 0;
  std::uint64_t job_id = 0;
  std::vector<engine::BatchNode> nodes;
  engine::JobSchedule schedule;        ///< unmet counts and dependents
  std::deque<std::size_t> ready;       ///< dispatchable cell indices
  bool in_ready_queue = false;         ///< present in conn->ready_jobs
  bool cancelled = false;              ///< client went away
  std::size_t completed = 0;
  std::size_t cached = 0;
  std::size_t failed = 0;
  std::size_t inflight = 0;
};

Daemon::Daemon(ServiceConfig config) : config_(std::move(config)) {}

Daemon::~Daemon() { stop(); }

Status Daemon::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return Status::unavailable("daemon already started");
  }

  // The engine runs in serial mode: the DAEMON owns the parallelism (its
  // dispatcher + pool), each dispatched cell is one inline
  // engine_->run(spec, &source) on a pool worker resolving through the
  // shared cache tiers.
  engine::EngineConfig engine_config;
  engine_config.threads = 1;
  engine_config.memory_capacity = config_.memory_capacity;
  engine_config.cache_dir = config_.cache_dir;
  engine_ = std::make_unique<engine::BatchEngine>(engine_config);

  const unsigned requested = config_.threads != 0
                                 ? config_.threads
                                 : std::thread::hardware_concurrency();
  pool_ = std::make_unique<sweep::ThreadPool>(requested == 0 ? 1 : requested);
  max_inflight_ = config_.max_inflight_cells != 0 ? config_.max_inflight_cells
                                                  : pool_->size();

  Status status = listen_unix(config_.socket_path, 64, &listen_fd_);
  if (!status.is_ok()) {
    pool_.reset();
    engine_.reset();
    return status;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
    stopping_ = false;
    stop_requested_ = false;
  }
  accept_thread_ = std::thread(&Daemon::accept_loop, this);
  dispatch_thread_ = std::thread(&Daemon::dispatch_loop, this);
  return Status::ok();
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_ || !started_; });
}

void Daemon::request_stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = true;
  stop_requested_ = true;
  stop_cv_.notify_all();
  dispatch_cv_.notify_all();
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    stop_requested_ = true;
    stop_cv_.notify_all();
    dispatch_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every reader stuck in read_line(), then join them.  The
  // accept thread is gone, so connections_ is ours to drain.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->socket.shutdown_both();
    }
    conns.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  // The dispatcher exits only once inflight_cells_ hit zero, so the pool
  // is idle; destroy it before anything it might reference.
  pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
  stop_cv_.notify_all();
}

bool Daemon::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return started_ && !stopping_;
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

engine::EngineStats Daemon::engine_stats() const {
  return engine_ != nullptr ? engine_->stats() : engine::EngineStats{};
}

// ---- accept side ------------------------------------------------------

void Daemon::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    // poll with a timeout instead of a blocking accept: shutdown() on a
    // LISTENING socket is not portable, so stop() is observed here.
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Reap connections whose reader finished (client went away) so a
    // long-lived daemon does not accumulate dead threads.
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->closed) {
          dead.push_back(*it);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const std::shared_ptr<Connection>& conn : dead) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    if (ready == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->socket.adopt(fd);

    Status admission = Status::ok();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        admission = Status::shutting_down("daemon is shutting down");
      } else if (config_.max_clients != 0 &&
                 open_connections_ >= config_.max_clients) {
        admission = Status::unavailable(
            "too many clients (" + std::to_string(open_connections_) +
            " connected, limit " + std::to_string(config_.max_clients) + ")");
      } else {
        conn->client_id = next_client_id_++;
        ++open_connections_;
        ++stats_.connections_total;
        connections_.push_back(conn);
      }
      if (!admission.is_ok()) ++stats_.connections_rejected;
    }
    if (!admission.is_ok()) {
      (void)conn->socket.write_line(
          render_status_event(wire::kEvError, 0, admission));
      continue;  // conn drops here, closing the socket
    }
    (void)conn->socket.write_line(render_hello());
    conn->reader = std::thread(&Daemon::reader_loop, this, conn);
  }
}

void Daemon::reader_loop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::string line;
    bool eof = false;
    const Status status = conn->socket.read_line(&line, &eof);
    // An oversized line is answered, then the connection dropped.
    if (status.code() == StatusCode::kProtocolError) {
      send_error(conn, 0, status);
    }
    if (!status.is_ok() || eof) break;
    if (line.empty()) continue;

    Value root;
    const Status parsed = obs::json::parse(line, root);
    if (!parsed.is_ok()) {
      send_error(conn, 0, Status::protocol_error(parsed.message()));
      continue;
    }
    if (!root.is_object()) {
      send_error(conn, 0,
                 Status::protocol_error("request is not a JSON object"));
      continue;
    }
    const Value* proto = root.find("proto");
    if (proto == nullptr || !proto->is_number() ||
        proto->as_number() != static_cast<double>(kProtocolVersion)) {
      send_error(conn, 0,
                 Status::unsupported_version(
                     "request protocol version " +
                     (proto != nullptr && proto->is_number()
                          ? proto->raw_number()
                          : std::string("?")) +
                     ", this daemon speaks v" +
                     std::to_string(kProtocolVersion)));
      continue;
    }
    std::uint64_t request_id = 0;
    if (!read_u64_field(root, "id", &request_id)) {
      send_error(conn, 0,
                 Status::protocol_error("'id' must be an unsigned integer"));
      continue;
    }
    const Value* op = root.find("op");
    if (op == nullptr || !op->is_string()) {
      send_error(conn, request_id,
                 Status::protocol_error("missing string key 'op'"));
      continue;
    }

    if (op->as_string() == wire::kOpPing) {
      send_line(conn, event_head(wire::kEvPong, request_id) + "}");
    } else if (op->as_string() == wire::kOpStats) {
      std::string stats_line;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_line = render_stats_locked(request_id);
      }
      send_line(conn, stats_line);
    } else if (op->as_string() == wire::kOpShutdown) {
      send_line(conn, event_head(wire::kEvBye, request_id) + "}");
      request_stop();
    } else if (op->as_string() == wire::kOpSubmit) {
      handle_submit(conn, request_id, root);
    } else {
      send_error(conn, request_id,
                 Status::protocol_error("unknown op '" + op->as_string() +
                                        "'"));
    }
  }
  handle_disconnect(conn);
  std::lock_guard<std::mutex> lock(mutex_);
  conn->closed = true;  // reapable from here on
}

void Daemon::handle_submit(const std::shared_ptr<Connection>& conn,
                           std::uint64_t request_id, const Value& root) {
  const auto reject = [&](const Status& status) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_rejected;
    }
    send_line(conn, render_status_event(wire::kEvRejected, request_id,
                                        status));
  };

  for (const obs::json::Member& member : root.as_object()) {
    if (member.first != "proto" && member.first != "op" &&
        member.first != "id" && member.first != "cells" &&
        member.first != "deps") {
      reject(Status::protocol_error("unknown request key '" + member.first +
                                    "'"));
      return;
    }
  }

  auto job = std::make_shared<Job>();
  job->conn = conn;
  job->request_id = request_id;
  Status status = engine::parse_job(root, &job->nodes);
  if (status.is_ok()) {
    status = engine::JobSchedule::build(job->nodes, &job->schedule);
  }
  if (!status.is_ok()) {
    reject(status);
    return;
  }
  const std::size_t n = job->nodes.size();

  // Admission: reserve the job's cells under the queued-cell bound (or
  // turn the whole job away -- jobs are admitted atomically).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++stats_.jobs_rejected;
      send_line(conn,
                render_status_event(
                    wire::kEvRejected, request_id,
                    Status::shutting_down("daemon is shutting down")));
      return;
    }
    if (config_.max_queued_cells != 0 &&
        queued_cells_ + n > config_.max_queued_cells) {
      ++stats_.jobs_rejected;
      send_line(conn,
                render_status_event(
                    wire::kEvRejected, request_id,
                    Status::admission_rejected(
                        "admitting " + std::to_string(n) +
                        " cells would exceed the queued-cell bound (" +
                        std::to_string(queued_cells_) + " of " +
                        std::to_string(config_.max_queued_cells) +
                        " in flight); retry after draining")));
      return;
    }
    job->job_id = next_job_id_++;
    queued_cells_ += n;
    ++stats_.jobs_accepted;
    conn->jobs.push_back(job);
    for (const std::size_t i : job->schedule.ready()) job->ready.push_back(i);
  }

  // `accepted` must precede every cell event, so the job is made visible
  // to the dispatcher only after the acceptance line is on the socket.
  {
    std::string accepted = event_head(wire::kEvAccepted, request_id);
    accepted += ",\"job\":";
    accepted += std::to_string(job->job_id);
    accepted += ",\"cells\":";
    accepted += std::to_string(n);
    accepted += '}';
    send_line(conn, accepted);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enqueue_ready_locked(job);
    dispatch_cv_.notify_all();
  }
}

void Daemon::handle_disconnect(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(mutex_);
  --open_connections_;
  // Cancel this client's jobs: cells never dispatched leave the admission
  // count now; in-flight cells leave it one by one as they finish.
  for (const std::shared_ptr<Job>& job : conn->jobs) {
    if (job->cancelled) continue;
    job->cancelled = true;
    queued_cells_ -=
        job->nodes.size() - job->completed - job->inflight;
    job->ready.clear();
  }
  for (const std::shared_ptr<Job>& job : conn->ready_jobs) {
    job->in_ready_queue = false;
  }
  conn->ready_jobs.clear();
  conn->jobs.clear();
  dispatch_cv_.notify_all();
}

// ---- dispatch side ----------------------------------------------------

void Daemon::enqueue_ready_locked(const std::shared_ptr<Job>& job) {
  if (job->cancelled || job->ready.empty() || job->in_ready_queue) return;
  job->in_ready_queue = true;
  job->conn->ready_jobs.push_back(job);
  if (!job->conn->in_rr) {
    job->conn->in_rr = true;
    rr_queue_.push_back(job->conn);
  }
}

void Daemon::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_ && inflight_cells_ == 0) return;

    bool dispatched = false;
    while (!stopping_ && inflight_cells_ < max_inflight_ &&
           !rr_queue_.empty()) {
      // One cell from the next client in round-robin order; the client
      // (and, within it, the job) goes to the back of its queue, so no
      // client -- however many cells it has queued -- can starve another.
      std::shared_ptr<Connection> conn = rr_queue_.front();
      rr_queue_.pop_front();
      conn->in_rr = false;
      while (!conn->ready_jobs.empty() &&
             (conn->ready_jobs.front()->cancelled ||
              conn->ready_jobs.front()->ready.empty())) {
        conn->ready_jobs.front()->in_ready_queue = false;
        conn->ready_jobs.pop_front();
      }
      if (conn->ready_jobs.empty()) continue;  // stale entry; next client

      std::shared_ptr<Job> job = conn->ready_jobs.front();
      conn->ready_jobs.pop_front();
      job->in_ready_queue = false;
      const std::size_t index = job->ready.front();
      job->ready.pop_front();
      if (!job->ready.empty()) {
        job->in_ready_queue = true;
        conn->ready_jobs.push_back(job);
      }
      if (!conn->ready_jobs.empty()) {
        conn->in_rr = true;
        rr_queue_.push_back(conn);
      }
      ++job->inflight;
      ++inflight_cells_;
      lock.unlock();
      pool_->submit([this, job, index] { run_cell(job, index); });
      lock.lock();
      dispatched = true;
    }
    if (!dispatched) dispatch_cv_.wait(lock);
  }
}

void Daemon::run_cell(std::shared_ptr<Job> job, std::size_t index) {
  const engine::RunSpec& spec = job->nodes[index].spec;
  engine::CellSource source = engine::CellSource::kEvaluated;
  engine::RunResult result;
  Status cell_status = Status::ok();
  try {
    result = engine_->run(spec, &source);
    if (!result.complete) {
      // evaluate_cell's only incomplete result: a cell kind it has no
      // evaluator for.
      cell_status = Status::internal("cell evaluator returned no result");
    }
  } catch (const std::invalid_argument& e) {
    // The exception boundary: a config or game-parameter validation
    // failure is the spec's fault, any other exception the evaluator's;
    // either becomes a per-cell Status and the job (and daemon) keep going.
    cell_status = Status::invalid_spec(e.what());
  } catch (const std::exception& e) {
    cell_status = Status::internal(e.what());
  } catch (...) {
    cell_status = Status::internal("unknown evaluation failure");
  }
  const bool cached = cell_status.is_ok() && engine::is_cached(source);

  bool deliver = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deliver = !job->cancelled;
  }
  if (deliver) {
    std::string line = event_head(wire::kEvCell, job->request_id);
    line += ",\"job\":";
    line += std::to_string(job->job_id);
    line += ",\"index\":";
    line += std::to_string(index);
    line += ",\"source\":\"";
    line += engine::to_string(source);
    line += "\",\"cached\":";
    line += cached ? '1' : '0';
    if (cell_status.is_ok()) {
      line += ",\"result\":";
      line += result.to_entry(spec.hash());
    } else {
      line += ",\"code\":\"";
      line += to_string(cell_status.code());
      line += "\",\"message\":\"";
      obs::append_json_escaped(line, cell_status.message());
      line += '"';
    }
    line += '}';
    send_line(job->conn, line);
  }

  bool done = false;
  std::string done_line;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --job->inflight;
    --inflight_cells_;
    --queued_cells_;
    ++job->completed;
    ++stats_.cells_completed;
    if (cached) {
      ++stats_.cells_cached;
      ++job->cached;
    }
    if (!cell_status.is_ok()) {
      ++stats_.cells_failed;
      ++job->failed;
    }
    if (!job->cancelled) {
      for (const std::size_t d : job->schedule.complete(index)) {
        job->ready.push_back(d);
      }
      enqueue_ready_locked(job);
      done = job->completed == job->nodes.size();
      if (done) {
        auto& jobs = job->conn->jobs;
        for (auto it = jobs.begin(); it != jobs.end(); ++it) {
          if (it->get() == job.get()) {
            jobs.erase(it);
            break;
          }
        }
        done_line = event_head(wire::kEvDone, job->request_id);
        done_line += ",\"job\":";
        done_line += std::to_string(job->job_id);
        done_line += ",\"cells\":";
        done_line += std::to_string(job->nodes.size());
        done_line += ",\"cached\":";
        done_line += std::to_string(job->cached);
        done_line += ",\"failed\":";
        done_line += std::to_string(job->failed);
        done_line += '}';
      }
    }
    dispatch_cv_.notify_all();
  }
  // Writing `done` outside the lock is safe for ordering: every other
  // cell's event write happened-before its bookkeeping above, which
  // happened-before this thread observed completed == n.
  if (done) send_line(job->conn, done_line);
}

// ---- event plumbing ---------------------------------------------------

void Daemon::send_line(const std::shared_ptr<Connection>& conn,
                       const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  (void)conn->socket.write_line(line);
}

void Daemon::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.protocol_errors;
  }
  send_line(conn, render_status_event(wire::kEvError, request_id, status));
}

std::string Daemon::render_stats_locked(std::uint64_t request_id) {
  std::string out = event_head(wire::kEvStats, request_id);
  out += ",\"daemon\":{";
  append_counter(out, "connections_total", stats_.connections_total, true);
  append_counter(out, "connections_open", open_connections_);
  append_counter(out, "connections_rejected", stats_.connections_rejected);
  append_counter(out, "jobs_accepted", stats_.jobs_accepted);
  append_counter(out, "jobs_rejected", stats_.jobs_rejected);
  append_counter(out, "cells_completed", stats_.cells_completed);
  append_counter(out, "cells_cached", stats_.cells_cached);
  append_counter(out, "cells_failed", stats_.cells_failed);
  append_counter(out, "protocol_errors", stats_.protocol_errors);
  append_counter(out, "queued_cells", queued_cells_);
  append_counter(out, "inflight_cells", inflight_cells_);
  out += "},\"engine\":{";
  const engine::EngineStats es = engine_->stats();
  append_counter(out, "cells_total", es.cells_total, true);
  append_counter(out, "cells_run", es.cells_run);
  append_counter(out, "memory_hits", es.memory_hits);
  append_counter(out, "disk_hits", es.disk_hits);
  append_counter(out, "mc_samples_run", es.mc_samples_run);
  append_counter(out, "mc_samples_cached", es.mc_samples_cached);
  append_counter(out, "entries_rejected", es.entries_rejected);
  out += "}}";
  return out;
}

}  // namespace swapgame::service
