// swapgamed wire protocol, version 1 (docs/SERVICE.md).
//
// Transport: an AF_UNIX stream socket carrying newline-delimited JSON --
// one object per line, no embedded newlines (every writer in this repo
// emits single-line JSON).  Both directions carry a `"proto":1` envelope
// field; the daemon greets each connection with a `hello` event that also
// names the RunSpec schema version it speaks, so version skew is caught
// at connect time, before any work is submitted.
//
// Requests (client -> daemon), all `{"proto":1,"op":...,"id":<u64>}`:
//   ping                      liveness probe
//   stats                     daemon + engine counters
//   shutdown                  ask the daemon to stop (answered with `bye`)
//   submit                    + "cells":[<RunSpec JSON>...] and optional
//                             "deps":[[indices]...] -- one DAG job
//
// Events (daemon -> client), all `{"proto":1,"event":...}`:
//   hello                     connection greeting (server, spec_version)
//   pong / stats / bye        direct answers, echoing the request id
//   accepted                  job admitted: job id + cell count
//   rejected                  job turned away: status code + message
//   cell                      one finished cell: index, provenance
//                             ("source"/"cached"), and either the result
//                             entry object or a per-cell error code
//   done                      job finished: cells / cached / failed
//   error                     protocol-level failure (bad line, bad op)
//
// Status codes cross the wire as their swapgame::to_string(StatusCode)
// tokens.  This header also provides the shared line-oriented socket
// wrapper both ends sit on; everything here returns Status -- the
// transport never throws.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "status.hpp"

namespace swapgame::service {

/// Version of the request/event envelope.  Independent of the RunSpec
/// schema version (engine::kRunSpecSchemaVersion), which rides inside the
/// hello event and every spec/result payload.
inline constexpr int kProtocolVersion = 1;

/// Wire tokens, kept in one place so daemon and client cannot drift.
namespace wire {
inline constexpr std::string_view kOpPing = "ping";
inline constexpr std::string_view kOpStats = "stats";
inline constexpr std::string_view kOpShutdown = "shutdown";
inline constexpr std::string_view kOpSubmit = "submit";

inline constexpr std::string_view kEvHello = "hello";
inline constexpr std::string_view kEvPong = "pong";
inline constexpr std::string_view kEvStats = "stats";
inline constexpr std::string_view kEvBye = "bye";
inline constexpr std::string_view kEvAccepted = "accepted";
inline constexpr std::string_view kEvRejected = "rejected";
inline constexpr std::string_view kEvCell = "cell";
inline constexpr std::string_view kEvDone = "done";
inline constexpr std::string_view kEvError = "error";
}  // namespace wire

/// Creates, binds and listens on an AF_UNIX stream socket at `path`
/// (unlinking any stale socket file first).  On success *out_fd owns the
/// listening descriptor.
[[nodiscard]] Status listen_unix(const std::string& path, int backlog,
                                 int* out_fd);

/// Connects to the AF_UNIX stream socket at `path`.
[[nodiscard]] Status connect_unix(const std::string& path, int* out_fd);

/// The longest line read_line() accepts, terminator excluded: 16 MiB.
/// Above any job the default admission bound admits (4096 cells of about
/// 2.2 KB of RunSpec JSON each, about 9 MB) and about 1200 times the
/// largest line a repo tool, bench or test sends (13,610 bytes, a
/// swapbench service job).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 24;

/// Buffered newline-delimited IO over one connected socket.  Reads and
/// writes are independently usable from different threads, but each
/// direction needs external serialization (the daemon holds a per-
/// connection write mutex; the client is synchronous).
class LineSocket {
 public:
  LineSocket() = default;
  explicit LineSocket(int fd) : fd_(fd) {}
  ~LineSocket() { close(); }

  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  /// Takes ownership of `fd`, closing any previous descriptor.
  void adopt(int fd);
  void close();
  /// Half-closes both directions without releasing the descriptor --
  /// unblocks a reader stuck in read_line() from another thread (the
  /// shutdown path), after which read_line reports EOF.
  void shutdown_both() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes `line` plus a trailing '\n', looping over partial writes.
  /// `line` must not contain '\n'.  A peer that disappeared yields
  /// kUnavailable (never SIGPIPE).
  [[nodiscard]] Status write_line(std::string_view line);

  /// Reads the next '\n'-terminated line (terminator stripped).  Clean
  /// EOF sets *eof and returns OK with an empty line; a mid-line EOF or
  /// transport error returns kUnavailable; a line longer than
  /// kMaxLineBytes returns kProtocolError (the caller should hang up:
  /// the rest of the line is still in flight).
  [[nodiscard]] Status read_line(std::string* line, bool* eof);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received but not yet returned
};

}  // namespace swapgame::service
