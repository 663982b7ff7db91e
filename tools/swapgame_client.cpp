// swapgame_client: command-line client for swapgamed (docs/SERVICE.md).
//
//   swapgame_client --socket PATH ping
//   swapgame_client --socket PATH stats
//   swapgame_client --socket PATH shutdown
//   swapgame_client --socket PATH submit JOB.json
//   swapgame_client demo-dag JOB.json
//
// A job file is `{"cells":[<RunSpec JSON>...],"deps":[[indices]...]}` --
// the wire submit request minus the envelope.  It is read and written by
// the job codec the daemon and the client library share
// (engine/job.hpp), so a malformed job -- a bad spec, a dependency that
// is not an index -- fails with `error: invalid_spec ...` and exit 1
// before anything crosses the socket.  Dependency ranges and cycles are
// checked by the daemon, with the validator the offline engine uses.
//
// submit prints one result entry per cell to STDOUT in node order --
// deterministic bytes, so a warm rerun diffs clean against a cold run --
// and progress plus a `summary cells=N cached=M failed=K` line to STDERR
// (provenance varies with cache state and belongs off the byte-diffed
// stream).  demo-dag writes the small mixed DAG (analytic + grid + mc +
// market_sim + a duplicate grid cell) the CI smoke job drives.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"

namespace {

using swapgame::Status;
using swapgame::engine::BatchNode;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH {ping|stats|shutdown|submit JOB.json}\n"
               "       %s demo-dag JOB.json\n",
               argv0, argv0);
  return 2;
}

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

/// Parses a job file into BatchNodes through the shared job codec.
Status load_job(const std::string& path, std::vector<BatchNode>* nodes) {
  std::ifstream in(path);
  if (!in) return Status::unavailable("cannot open job file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();

  swapgame::obs::json::Value root;
  const Status status = swapgame::obs::json::parse(text.str(), root);
  if (!status.is_ok()) {
    return Status::invalid_spec("job file '" + path + "': " +
                                status.message());
  }
  return swapgame::engine::parse_job(root, nodes);
}

/// The CI smoke DAG: one cheap cell of every flavor plus a duplicate of
/// the grid cell that must come back from the shared cache even cold.
std::vector<BatchNode> demo_dag() {
  std::vector<BatchNode> nodes(5);

  nodes[0].spec.kind = swapgame::engine::CellKind::kAnalyticSr;
  nodes[0].spec.label = "demo:analytic";

  nodes[1].spec.kind = swapgame::engine::CellKind::kSrGrid;
  nodes[1].spec.label = "demo:grid";
  nodes[1].spec.grid_count = 8;
  nodes[1].spec.grid_denom = 8;
  nodes[1].deps = {0};

  nodes[2].spec.kind = swapgame::engine::CellKind::kMc;
  nodes[2].spec.label = "demo:mc";
  nodes[2].spec.mc.config.samples = 4000;
  nodes[2].spec.mc.config.seed = 7;
  nodes[2].deps = {0};

  nodes[3].spec.kind = swapgame::engine::CellKind::kMarketSim;
  nodes[3].spec.label = "demo:market";
  nodes[3].spec.population.sessions = 300;
  nodes[3].spec.population.seed = 0x5eed;

  // Same spec as node 1 under a different label (labels stay out of the
  // hash), ordered after it: always a cache hit, even on a cold daemon.
  nodes[4].spec = nodes[1].spec;
  nodes[4].spec.label = "demo:grid-dup";
  nodes[4].deps = {1};
  return nodes;
}

int write_job_file(const std::string& path) {
  const std::vector<BatchNode> nodes = demo_dag();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return fail(Status::unavailable("cannot write '" + path + "'"));
  }
  out << '{' << swapgame::engine::render_job(nodes) << "}\n";
  if (!out.flush()) {
    return fail(Status::unavailable("short write to '" + path + "'"));
  }
  std::fprintf(stderr, "wrote %zu-cell demo DAG to %s\n", nodes.size(),
               path.c_str());
  return 0;
}

int run_submit(swapgame::service::Client& client,
               const std::vector<BatchNode>& nodes) {
  swapgame::service::Client::SubmitOutcome outcome;
  const std::size_t total = nodes.size();
  const Status status = client.submit(
      nodes, &outcome,
      [total](const swapgame::service::Client::CellUpdate& update) {
        std::fprintf(stderr, "cell %zu/%zu source=%s%s\n", update.index + 1,
                     total, update.source.c_str(),
                     update.status.is_ok()
                         ? ""
                         : (" " + update.status.to_string()).c_str());
      });
  if (outcome.results.size() == nodes.size()) {
    // Node-order result entries: the deterministic, byte-diffable stream.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (outcome.cell_status[i].is_ok()) {
        std::cout << outcome.results[i].to_entry(nodes[i].spec.hash())
                  << '\n';
      }
    }
    std::cout.flush();
    std::fprintf(stderr, "summary cells=%zu cached=%zu failed=%zu\n",
                 outcome.cells, outcome.cached_cells, outcome.failed_cells);
  }
  return status.is_ok() ? 0 : fail(status);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // demo-dag needs no daemon: it only writes the job file.
  if (args.size() == 2 && args[0] == "demo-dag") {
    return write_job_file(args[1]);
  }

  std::string socket_path;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--socket" && i + 1 < args.size()) {
      socket_path = args[++i];
    } else {
      rest.push_back(args[i]);
    }
  }
  if (socket_path.empty() || rest.empty()) return usage(argv[0]);

  swapgame::service::Client client;
  Status status = client.connect(socket_path);
  if (!status.is_ok()) return fail(status);

  if (rest[0] == "ping" && rest.size() == 1) {
    status = client.ping();
    if (status.is_ok()) std::puts("pong");
    return status.is_ok() ? 0 : fail(status);
  }
  if (rest[0] == "stats" && rest.size() == 1) {
    std::string stats_json;
    status = client.server_stats(&stats_json);
    if (status.is_ok()) std::puts(stats_json.c_str());
    return status.is_ok() ? 0 : fail(status);
  }
  if (rest[0] == "shutdown" && rest.size() == 1) {
    status = client.shutdown_server();
    if (status.is_ok()) std::puts("bye");
    return status.is_ok() ? 0 : fail(status);
  }
  if (rest[0] == "submit" && rest.size() == 2) {
    std::vector<BatchNode> nodes;
    status = load_job(rest[1], &nodes);
    if (!status.is_ok()) return fail(status);
    return run_submit(client, nodes);
  }
  return usage(argv[0]);
}
