#include "server/protocol_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "server/line_protocol.h"

namespace bigindex {

ProtocolClient::ProtocolClient(std::string host, uint16_t port,
                               ProtocolClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

ProtocolClient::~ProtocolClient() { Disconnect(); }

void ProtocolClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status ProtocolClient::TryConnectOnce() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  int rc = ::getaddrinfo(host_.c_str(), std::to_string(port_).c_str(), &hints,
                         &addrs);
  if (rc != 0) {
    // Resolution failures are configuration errors, not transient: retrying
    // them would just burn the backoff budget.
    return Status::InvalidArgument("resolve " + host_ + ": " +
                                   gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for " + host_);
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    int fd = ::socket(a->ai_family, a->ai_socktype | SOCK_NONBLOCK,
                      a->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) != 0 &&
        errno != EINPROGRESS) {
      last = Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
      ::close(fd);
      continue;
    }
    // Wait for the handshake, bounded by the per-attempt timeout.
    pollfd pfd{fd, POLLOUT, 0};
    int timeout_ms = static_cast<int>(std::lround(
        std::max(1.0, options_.connect_timeout_ms)));
    int ready = ::poll(&pfd, 1, timeout_ms);
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (ready > 0 &&
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) == 0 &&
        err == 0) {
      // Connected: back to blocking mode for the lockstep I/O.
      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      fd_ = fd;
      buffer_.clear();
      ::freeaddrinfo(addrs);
      return Status::OK();
    }
    last = ready == 0
               ? Status::Unavailable("connect timeout after " +
                                     std::to_string(timeout_ms) + "ms")
               : Status::Unavailable(std::string("connect: ") +
                                     std::strerror(err != 0 ? err : errno));
    ::close(fd);
  }
  ::freeaddrinfo(addrs);
  return last;
}

Status ProtocolClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  Status last = Status::Unavailable("no connection attempts made");
  int attempts = std::max(1, options_.max_attempts);
  double backoff_ms = options_.backoff_base_ms;
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(backoff_ms, options_.backoff_cap_ms)));
      backoff_ms *= 2;
    }
    last = TryConnectOnce();
    if (last.ok()) return last;
    if (last.code() == StatusCode::kInvalidArgument) return last;  // no retry
  }
  return Status::Unavailable(host_ + ":" + std::to_string(port_) +
                             " unreachable after " +
                             std::to_string(attempts) +
                             " attempts: " + last.message());
}

StatusOr<std::vector<std::string>> ProtocolClient::Request(
    const std::string& line) {
  BIGINDEX_RETURN_IF_ERROR(Connect());
  std::string request = line;
  request += '\n';
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::write(fd_, request.data() + off, request.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return Status::Unavailable("connection lost while sending request");
    }
    off += static_cast<size_t>(n);
  }

  std::vector<std::string> lines;
  char chunk[4096];
  size_t scanned = 0;  // leading bytes of buffer_ known to hold no '\n'
  auto too_long = [this] {
    Disconnect();
    return Status::IOError("reply line longer than " +
                           std::to_string(kMaxRequestLineBytes) + " bytes");
  };
  while (true) {
    size_t nl;
    while ((nl = buffer_.find('\n', scanned)) != std::string::npos) {
      if (nl > kMaxRequestLineBytes) return too_long();
      std::string resp = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned = 0;
      if (!resp.empty() && resp.back() == '\r') resp.pop_back();
      if (resp == ".") return lines;
      lines.push_back(std::move(resp));
    }
    scanned = buffer_.size();
    if (scanned > kMaxRequestLineBytes) return too_long();
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return Status::Unavailable("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::vector<std::string>> ProtocolClient::Call(
    const std::string& line) {
  StatusOr<std::vector<std::string>> block = Request(line);
  if (!block.ok()) return block;
  const std::string verb = line.substr(0, line.find(' '));
  if (block->empty()) return Status::IOError("empty " + verb + " response");
  const std::string& head = block->front();
  if (head.starts_with("ERR")) return ParseErrLine(head);
  if (head != "OK" && !head.starts_with("OK ")) {
    return Status::IOError("unexpected " + verb + " response: '" + head + "'");
  }
  return block;
}

}  // namespace bigindex
