// Minimal line-protocol TCP front end for a QueryService (a monolithic
// SearchService, a remapped shard worker, or the sharded coordinator).
//
// One acceptor thread plus one thread per connection; each connection is a
// LineHandler session (read a line, write the dot-terminated response
// block). The same port answers HTTP scrapes (`GET /metrics`, `GET /trace`;
// see line_protocol.h), so a process needs no second listener. Concurrency,
// batching, backpressure, and deadlines all live in the service behind it —
// this layer only moves bytes, so a slow or hostile client can at worst
// stall its own connection thread. A finished connection's descriptor is
// closed and its thread joined while the server runs, and an accept error
// (say, out of descriptors) only pauses accepting until Stop().

#ifndef BIGINDEX_SERVER_TCP_SERVER_H_
#define BIGINDEX_SERVER_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

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
  /// Run by a connection's own thread once it is done: drops the entry,
  /// closes `fd` and joins the previously finished connection's thread.
  void Release(int fd);

  QueryService* service_;
  const LabelDictionary* dict_;
  TcpServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::condition_variable connections_empty_;
  /// Live connections by descriptor. A descriptor is closed only as its
  /// entry leaves, under the mutex, so every key is still open and Stop()
  /// never shuts down a number the kernel has handed out again.
  std::unordered_map<int, std::thread> connections_;
  /// The last finished connection's thread; the next one to finish (or
  /// Stop()) joins it.
  std::thread finished_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_TCP_SERVER_H_
