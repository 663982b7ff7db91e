#include "protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace swapgame::service {

namespace {

Status errno_status(std::string_view what) {
  return Status::unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

Status fill_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty()) {
    return Status::unavailable("socket path is empty");
  }
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::unavailable("socket path too long for AF_UNIX: '" + path +
                               "'");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::ok();
}

}  // namespace

Status listen_unix(const std::string& path, int backlog, int* out_fd) {
  sockaddr_un addr{};
  Status status = fill_addr(path, &addr);
  if (!status.is_ok()) return status;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  // A stale socket file from a killed daemon would make bind() fail;
  // a LIVE daemon on the same path loses its file but keeps serving its
  // existing connections -- last binder wins, like any pid-file-less
  // daemon.  Callers wanting exclusion should pick unique paths.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status err = errno_status("bind '" + path + "'");
    ::close(fd);
    return err;
  }
  if (::listen(fd, backlog) < 0) {
    const Status err = errno_status("listen '" + path + "'");
    ::close(fd);
    return err;
  }
  *out_fd = fd;
  return Status::ok();
}

Status connect_unix(const std::string& path, int* out_fd) {
  sockaddr_un addr{};
  Status status = fill_addr(path, &addr);
  if (!status.is_ok()) return status;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status err = errno_status("connect '" + path + "'");
    ::close(fd);
    return err;
  }
  *out_fd = fd;
  return Status::ok();
}

void LineSocket::adopt(int fd) {
  close();
  fd_ = fd;
  buffer_.clear();
}

void LineSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void LineSocket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status LineSocket::write_line(std::string_view line) {
  if (fd_ < 0) return Status::unavailable("socket is closed");
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');

  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer is a Status, not a SIGPIPE.
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status LineSocket::read_line(std::string* line, bool* eof) {
  line->clear();
  *eof = false;
  if (fd_ < 0) return Status::unavailable("socket is closed");
  // buffer_[0, scanned) holds no '\n': every received byte is searched
  // once.
  for (std::size_t scanned = 0;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (std::min(newline, buffer_.size()) > kMaxLineBytes) {
      buffer_.clear();
      return Status::protocol_error("line longer than " +
                                    std::to_string(kMaxLineBytes) + " bytes");
    }
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return Status::ok();
    }
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("recv");
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        return Status::unavailable("connection closed mid-line");
      }
      *eof = true;
      return Status::ok();
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace swapgame::service
