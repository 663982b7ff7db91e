// The swapgamed service layer (src/service, docs/SERVICE.md): daemon
// lifecycle, cross-client cache sharing, admission control, and the raw
// wire protocol's structured error surface.  Everything runs against a
// real daemon on a private AF_UNIX socket -- the same code paths the
// swapgamed / swapgame_client binaries exercise across processes.
#include "service/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_engine.hpp"
#include "engine/job.hpp"
#include "engine/run_spec.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "status.hpp"

namespace {

using swapgame::Status;
using swapgame::StatusCode;
using swapgame::engine::BatchNode;
using swapgame::engine::CellKind;
using swapgame::service::Client;
using swapgame::service::Daemon;
using swapgame::service::LineSocket;
using swapgame::service::ServiceConfig;

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::swapgame::Status status_ = (expr);          \
    ASSERT_TRUE(status_.is_ok()) << status_.to_string(); \
  } while (0)

/// A per-test socket path: short (sun_path is ~100 bytes) and unique per
/// process so parallel ctest runs cannot collide.
std::string socket_path(const std::string& tag) {
  return "/tmp/swapgame-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

/// Two cheap analytic cells with a dependency edge -- finishes in
/// microseconds, no sampling.
std::vector<BatchNode> tiny_dag() {
  std::vector<BatchNode> nodes(2);
  nodes[0].spec.kind = CellKind::kAnalyticSr;
  nodes[0].spec.label = "test:analytic";
  nodes[1].spec.kind = CellKind::kSrGrid;
  nodes[1].spec.label = "test:grid";
  nodes[1].spec.grid_count = 4;
  nodes[1].spec.grid_denom = 4;
  nodes[1].deps = {0};
  return nodes;
}

/// Reads and parses the next event line off a raw socket.
Status read_event(LineSocket& socket, swapgame::obs::json::Value* event) {
  std::string line;
  bool eof = false;
  Status status = socket.read_line(&line, &eof);
  if (!status.is_ok()) return status;
  if (eof) return Status::unavailable("unexpected EOF");
  return swapgame::obs::json::parse(line, *event);
}

/// Expects the next event to be `{"event":<name>,"code":<code>}`;
/// `message` (optional) receives the event's message.
void expect_status_event(LineSocket& socket, std::string_view name,
                         StatusCode code, std::string* message = nullptr) {
  swapgame::obs::json::Value event;
  ASSERT_OK(read_event(socket, &event));
  ASSERT_TRUE(event.find("event") != nullptr);
  EXPECT_EQ(event.find("event")->as_string(), name);
  ASSERT_TRUE(event.find("code") != nullptr);
  EXPECT_EQ(event.find("code")->as_string(), swapgame::to_string(code));
  if (message != nullptr) {
    ASSERT_TRUE(event.find("message") != nullptr);
    *message = event.find("message")->as_string();
  }
}

/// Default-spec nodes with the given deps, and the message the shared
/// validator and the offline engine give them (they must agree).
std::string validator_message(
    const std::vector<std::vector<std::size_t>>& deps) {
  std::vector<BatchNode> nodes(deps.size());
  for (std::size_t i = 0; i < deps.size(); ++i) nodes[i].deps = deps[i];
  swapgame::engine::JobSchedule schedule;
  const Status status =
      swapgame::engine::JobSchedule::build(nodes, &schedule);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  swapgame::engine::EngineConfig config;
  config.threads = 1;
  swapgame::engine::BatchEngine engine(config);
  std::string thrown;
  try {
    (void)engine.run_batch(nodes);
  } catch (const std::invalid_argument& e) {
    thrown = e.what();
  }
  EXPECT_EQ(thrown, status.message());
  return status.message();
}

TEST(StatusTokens, RoundTripEveryCode) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidSpec,
        StatusCode::kUnsupportedVersion, StatusCode::kAdmissionRejected,
        StatusCode::kCacheCorrupt, StatusCode::kProtocolError,
        StatusCode::kUnavailable, StatusCode::kShuttingDown,
        StatusCode::kInternal}) {
    EXPECT_EQ(swapgame::status_code_from_token(swapgame::to_string(code)),
              code);
  }
  // Unknown tokens (a newer peer) degrade to kInternal, never to kOk.
  EXPECT_EQ(swapgame::status_code_from_token("quantum_flux"),
            StatusCode::kInternal);
  const Status status = Status::from_token("admission_rejected", "later");
  EXPECT_EQ(status.code(), StatusCode::kAdmissionRejected);
  EXPECT_EQ(status.message(), "later");
}

TEST(Service, LifecycleSharesCacheAcrossClients) {
  ServiceConfig config;
  config.socket_path = socket_path("life");
  config.threads = 2;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());
  ASSERT_TRUE(daemon.running());

  const std::vector<BatchNode> nodes = tiny_dag();

  // Client A runs the DAG cold: every cell evaluated, none cached.
  Client a;
  ASSERT_OK(a.connect(config.socket_path));
  Client::SubmitOutcome cold;
  ASSERT_OK(a.submit(nodes, &cold));
  EXPECT_EQ(cold.cells, nodes.size());
  EXPECT_EQ(cold.cached_cells, 0u);
  EXPECT_EQ(cold.failed_cells, 0u);

  // Client B -- a separate connection -- resubmits the same specs and
  // must be served entirely from the shared cache, byte for byte.
  Client b;
  ASSERT_OK(b.connect(config.socket_path));
  Client::SubmitOutcome warm;
  std::size_t progress_events = 0;
  ASSERT_OK(b.submit(nodes, &warm,
                     [&progress_events](const Client::CellUpdate& update) {
                       ++progress_events;
                       EXPECT_TRUE(update.cached);
                       EXPECT_EQ(update.source, "memory");
                       EXPECT_TRUE(update.status.is_ok());
                     }));
  EXPECT_EQ(progress_events, nodes.size());
  EXPECT_EQ(warm.cached_cells, nodes.size());
  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string hash = nodes[i].spec.hash();
    EXPECT_EQ(warm.results[i].to_entry(hash), cold.results[i].to_entry(hash));
  }

  const swapgame::service::DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.connections_total, 2u);
  EXPECT_EQ(stats.jobs_accepted, 2u);
  EXPECT_EQ(stats.cells_completed, 2 * nodes.size());
  EXPECT_EQ(stats.cells_cached, nodes.size());
  EXPECT_EQ(stats.cells_failed, 0u);

  // Clean shutdown THROUGH the protocol: bye, wait() unparks, stop()
  // drains and unlinks the socket.
  ASSERT_OK(b.shutdown_server());
  daemon.wait();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_NE(::access(config.socket_path.c_str(), F_OK), 0);
}

TEST(Service, TooManyTraderTypesFailsAsACellStatus) {
  // A market_sim cell with 17 trader types would solve 289 type pairs
  // before its first arrival.  The simulator refuses it at construction,
  // so the client gets a per-cell Status back instead of a long run.
  ServiceConfig config;
  config.socket_path = socket_path("types");
  config.threads = 1;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());

  std::vector<BatchNode> nodes(1);
  nodes[0].spec.kind = CellKind::kMarketSim;
  nodes[0].spec.label = "test:too-many-types";
  nodes[0].spec.population.types.assign(17, swapgame::market::TraderType{});
  Client client;
  ASSERT_OK(client.connect(config.socket_path));
  Client::SubmitOutcome outcome;
  const Status status = client.submit(nodes, &outcome);
  EXPECT_FALSE(status.is_ok());
  // A validation failure is the spec's fault, not the daemon's.
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << status.to_string();
  ASSERT_EQ(outcome.cell_status.size(), 1u);
  EXPECT_EQ(outcome.cell_status[0].code(), StatusCode::kInvalidSpec);
  EXPECT_NE(status.message().find("at most 16 trader types"),
            std::string::npos)
      << status.to_string();
  EXPECT_EQ(outcome.failed_cells, 1u);
  EXPECT_EQ(daemon.stats().cells_failed, 1u);
  client.close();
  daemon.stop();
}

TEST(Service, AdmissionControlRejectsOversizedJobs) {
  ServiceConfig config;
  config.socket_path = socket_path("admit");
  config.threads = 1;
  config.max_queued_cells = 1;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());

  Client client;
  ASSERT_OK(client.connect(config.socket_path));

  // Two cells against a one-cell bound: structured backpressure, nothing
  // runs.
  Client::SubmitOutcome outcome;
  const Status rejected = client.submit(tiny_dag(), &outcome);
  EXPECT_EQ(rejected.code(), StatusCode::kAdmissionRejected)
      << rejected.to_string();

  // A job that fits is still admitted afterwards -- rejection is
  // per-request, not a poisoned connection.
  std::vector<BatchNode> small(1);
  small[0].spec.kind = CellKind::kAnalyticSr;
  ASSERT_OK(client.submit(small, &outcome));
  EXPECT_EQ(outcome.cells, 1u);

  const swapgame::service::DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_accepted, 1u);
  daemon.stop();
}

TEST(Service, WireProtocolErrorSurface) {
  ServiceConfig config;
  config.socket_path = socket_path("wire");
  config.threads = 1;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());

  int fd = -1;
  ASSERT_OK(swapgame::service::connect_unix(config.socket_path, &fd));
  LineSocket socket;
  socket.adopt(fd);

  // The greeting pins both version numbers.
  swapgame::obs::json::Value hello;
  ASSERT_OK(read_event(socket, &hello));
  EXPECT_EQ(hello.find("event")->as_string(), "hello");
  EXPECT_EQ(hello.find("proto")->as_u64(),
            static_cast<std::uint64_t>(swapgame::service::kProtocolVersion));
  EXPECT_EQ(
      hello.find("spec_version")->as_u64(),
      static_cast<std::uint64_t>(swapgame::engine::kRunSpecSchemaVersion));

  const std::string spec_json = swapgame::engine::RunSpec{}.to_json();

  // Unparseable line -> protocol_error (connection stays usable).
  ASSERT_OK(socket.write_line("this is not json"));
  expect_status_event(socket, "error", StatusCode::kProtocolError);

  // Envelope version skew -> unsupported_version.
  ASSERT_OK(socket.write_line("{\"proto\":2,\"op\":\"ping\",\"id\":1}"));
  expect_status_event(socket, "error", StatusCode::kUnsupportedVersion);

  // Unknown op -> protocol_error.
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"teleport\",\"id\":2}"));
  expect_status_event(socket, "error", StatusCode::kProtocolError);

  // Empty cell list -> invalid_spec rejection.
  ASSERT_OK(socket.write_line(
      "{\"proto\":1,\"op\":\"submit\",\"id\":3,\"cells\":[]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec);

  // A cell with a stale RunSpec schema -> the codec's code survives to
  // the wire as unsupported_version, not a generic failure.
  const std::string current =
      "\"v\":" +
      std::to_string(swapgame::engine::kRunSpecSchemaVersion);
  std::string stale = spec_json;
  stale.replace(stale.find(current), current.size(), "\"v\":4");
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":4," +
                              std::string("\"cells\":[") + stale + "]}"));
  expect_status_event(socket, "rejected", StatusCode::kUnsupportedVersion);

  // A cell with an unknown key -> invalid_spec naming it.
  std::string bogus = spec_json;
  bogus.insert(bogus.size() - 1, ",\"bogus\":1");
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":5," +
                              std::string("\"cells\":[") + bogus + "]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec);

  // Dependency out of range -> invalid_spec, worded by the shared
  // validator exactly as the offline engine throws it.
  std::string message;
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":6," +
                              std::string("\"cells\":[") + spec_json +
                              "],\"deps\":[[7]]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec, &message);
  EXPECT_EQ(message, validator_message({{7}}));

  // Dependency cycle -> invalid_spec (never enqueued, never deadlocks).
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":7," +
                              std::string("\"cells\":[") + spec_json + "," +
                              spec_json + "],\"deps\":[[1],[0]]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec, &message);
  EXPECT_EQ(message, validator_message({{1}, {0}}));

  // A cell that depends on itself is a cycle too.
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":8," +
                              std::string("\"cells\":[") + spec_json +
                              "],\"deps\":[[0]]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec, &message);
  EXPECT_EQ(message, validator_message({{0}}));

  // A negative dependency is not an index.
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"submit\",\"id\":9," +
                              std::string("\"cells\":[") + spec_json +
                              "],\"deps\":[[-1]]}"));
  expect_status_event(socket, "rejected", StatusCode::kInvalidSpec);

  // After all that abuse the connection still answers a well-formed ping.
  ASSERT_OK(socket.write_line("{\"proto\":1,\"op\":\"ping\",\"id\":10}"));
  swapgame::obs::json::Value pong;
  ASSERT_OK(read_event(socket, &pong));
  EXPECT_EQ(pong.find("event")->as_string(), "pong");
  EXPECT_EQ(pong.find("id")->as_u64(), 10u);

  EXPECT_EQ(daemon.stats().protocol_errors, 3u);
  EXPECT_EQ(daemon.stats().jobs_rejected, 7u);
  socket.close();
  daemon.stop();
}

TEST(Service, OversizedLineIsRejectedAndOtherClientsStayServed) {
  ServiceConfig config;
  config.socket_path = socket_path("oversized");
  config.threads = 1;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());

  int fd = -1;
  ASSERT_OK(swapgame::service::connect_unix(config.socket_path, &fd));
  LineSocket flooder;
  flooder.adopt(fd);
  // A daemon that waits forever for the terminator fails the read below
  // instead of hanging the test.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  swapgame::obs::json::Value hello;
  ASSERT_OK(read_event(flooder, &hello));

  // One byte past the limit and no terminator.  The daemon may hang up
  // before taking all of it, so the write's status is not checked.
  const std::string flood(swapgame::service::kMaxLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  expect_status_event(flooder, "error", StatusCode::kProtocolError);
  std::string line;
  bool eof = false;
  ASSERT_OK(flooder.read_line(&line, &eof));
  EXPECT_TRUE(eof) << "the daemon keeps the connection after the overflow";

  // Another client is served as usual.
  Client client;
  ASSERT_OK(client.connect(config.socket_path));
  ASSERT_OK(client.ping());
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  flooder.close();
  daemon.stop();
}

TEST(Service, BlockedRejectionDoesNotStallOtherClients) {
  // A client that pipelines submits past the queued-cell bound and never
  // reads fills its socket with rejections until the daemon's write to it
  // blocks.  That write must not hold the daemon's lock: another client's
  // job still completes meanwhile.
  ServiceConfig config;
  config.socket_path = socket_path("jam");
  config.threads = 1;
  config.max_queued_cells = 1;
  Daemon daemon(config);
  ASSERT_OK(daemon.start());

  int fd = -1;
  ASSERT_OK(swapgame::service::connect_unix(config.socket_path, &fd));
  LineSocket flooder;
  flooder.adopt(fd);
  swapgame::obs::json::Value hello;
  ASSERT_OK(read_event(flooder, &hello));

  // Two cells against a one-cell bound: every submit is refused at
  // admission, after parsing.
  const std::string cell = swapgame::engine::RunSpec{}.to_json();
  constexpr std::size_t kSubmits = 20000;
  std::atomic<std::size_t> written{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < kSubmits; ++i) {
      const std::string line = "{\"proto\":1,\"op\":\"submit\",\"id\":" +
                               std::to_string(i + 1) + ",\"cells\":[" + cell +
                               "," + cell + "]}";
      if (!flooder.write_line(line).is_ok()) return;
      written.fetch_add(1);
    }
  });
  // The flood is jammed once the writer stops making progress.
  std::size_t last = 0;
  for (int still = 0; still < 5 && written.load() < kSubmits;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::size_t now = written.load();
    still = now == last ? still + 1 : 0;
    last = now;
  }
  EXPECT_LT(written.load(), kSubmits)
      << "the flood never filled the socket, so nothing was tested";

  std::future<Status> served = std::async(std::launch::async, [&config] {
    Client client;
    const Status connected = client.connect(config.socket_path);
    if (!connected.is_ok()) return connected;
    std::vector<BatchNode> small(1);
    small[0].spec.kind = CellKind::kAnalyticSr;
    Client::SubmitOutcome outcome;
    return client.submit(small, &outcome);
  });
  EXPECT_EQ(served.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "a client that does not read stalls every other client";
  // Hanging up on the daemon unjams it either way.
  ::shutdown(fd, SHUT_RDWR);
  writer.join();
  ASSERT_OK(served.get());
  flooder.close();
  daemon.stop();
}

TEST(Service, ClientRefusesSpecVersionSkew) {
  // A fake server whose hello advertises a RunSpec schema this client
  // does not speak: connect() must fail BEFORE any work can be
  // submitted, with the distinct upgrade-me code.
  const std::string path = socket_path("skew");
  int listen_fd = -1;
  ASSERT_OK(swapgame::service::listen_unix(path, 4, &listen_fd));
  std::thread server([listen_fd] {
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn_fd, 0);
    LineSocket peer;
    peer.adopt(conn_fd);
    ASSERT_OK(peer.write_line(
        "{\"proto\":1,\"event\":\"hello\",\"server\":\"fake\","
        "\"spec_version\":999}"));
    std::string line;
    bool eof = false;
    (void)peer.read_line(&line, &eof);  // drain until the client hangs up
  });

  Client client;
  const Status status = client.connect(path);
  EXPECT_EQ(status.code(), StatusCode::kUnsupportedVersion)
      << status.to_string();
  client.close();
  server.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace
