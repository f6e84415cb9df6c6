#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

#include "server/line_protocol.h"
#include "util/logging.h"

namespace bigindex {
namespace {

/// write() until done; false on a broken connection.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(QueryService* service, const LabelDictionary* dict,
                     TcpServerOptions options)
    : service_(service), dict_(dict), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      options_.loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IOError(std::string("listen: ") +
                               std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Only Stop() ends the loop (its shutdown makes accept fail). Running
      // out of descriptors or buffers, or an aborted handshake, does not:
      // back off briefly, since a full descriptor table fails at once.
      if (errno != EINTR && errno != ECONNABORTED &&
          !stopping_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // Under the mutex, so Release() finds the entry however soon the
    // connection ends.
    try {
      connections_.emplace(fd, std::thread([this, fd] {
                             ServeConnection(fd);
                             Release(fd);
                           }));
    } catch (const std::system_error& e) {
      // No thread to serve it (the process is out of threads): drop this
      // connection and go on serving the others.
      ::close(fd);
      BIGINDEX_LOG(kWarning) << "tcp server dropped a connection: "
                             << e.what();
    }
  }
}

void TcpServer::ServeConnection(int fd) {
  LineHandler handler(service_, dict_);
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // client gone or Stop() shut the socket down
    }
    buffer.append(chunk, static_cast<size_t>(n));
    while (open) {
      const size_t nl = buffer.find('\n');
      if (std::min(nl, buffer.size()) > kMaxRequestLineBytes) {
        WriteAll(fd, "ERR InvalidArgument: request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) +
                         " bytes\n.\n");
        open = false;
      } else if (nl == std::string::npos) {
        break;
      } else {
        std::string_view line(buffer.data(), nl);
        if (line.ends_with('\r')) line.remove_suffix(1);
        if (!line.empty() || handler.scrape_pending()) {
          LineHandler::Result result = handler.Handle(line);
          if (!WriteAll(fd, result.response) || result.close) open = false;
        }
        buffer.erase(0, nl + 1);
      }
    }
  }
}

void TcpServer::Release(int fd) {
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.find(fd);
    ::close(fd);
    previous = std::exchange(finished_, std::move(it->second));
    connections_.erase(it);
    if (connections_.empty()) connections_empty_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

void TcpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;  // already stopped
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    for (auto& [fd, thread] : connections_) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks the connection's read()
    }
    connections_empty_.wait(lock, [this] { return connections_.empty(); });
    last = std::move(finished_);
  }
  // Each finished thread joined the one before it, so this joins them all.
  if (last.joinable()) last.join();
  BIGINDEX_LOG(kInfo) << "tcp server on port " << port_ << " stopped";
}

}  // namespace bigindex
