// Minimal line-protocol TCP front end for a QueryService (a monolithic
// SearchService, a remapped shard worker, or the sharded coordinator).
//
// One acceptor thread plus one thread per connection; each connection is a
// LineHandler session (read a line, write the dot-terminated response
// block). Concurrency, batching, backpressure, and deadlines all live in
// the service behind it — this layer only moves bytes, so a slow or
// hostile client can at worst stall its own connection thread.

#ifndef BIGINDEX_SERVER_TCP_SERVER_H_
#define BIGINDEX_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/label_dictionary.h"
#include "server/line_protocol.h"
#include "server/query_service.h"
#include "util/status.h"

namespace bigindex {

struct TcpServerOptions {
  /// 0 = pick an ephemeral port (read it back with port()).
  uint16_t port = 7419;

  /// Loopback only by default; set false to listen on all interfaces.
  bool loopback_only = true;
};

class TcpServer {
 public:
  /// `service` (and `dict`, optional) are borrowed; keep them alive until
  /// Stop() returns.
  TcpServer(QueryService* service, const LabelDictionary* dict,
            TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the acceptor. IOError on bind/listen
  /// failure (e.g. port in use).
  Status Start();

  /// Stops accepting, disconnects every client, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  QueryService* service_;
  const LabelDictionary* dict_;
  TcpServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::vector<std::pair<int, std::thread>> connections_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_TCP_SERVER_H_
