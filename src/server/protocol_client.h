// ProtocolClient — blocking line-protocol TCP client with bounded connect
// timeout and exponential-backoff retry.
//
// The connect path is the availability-critical piece: both bigindex_client
// and the shard coordinator's RemoteSubstrate fan-out go through it, and a
// shard worker that is down, still starting, or unreachable must surface as
// a clean kUnavailable within a bounded time — never a hung connect() or an
// unbounded retry loop. Connection attempts use a non-blocking connect
// polled against the per-attempt timeout; failed attempts back off
// exponentially (base * 2^i, capped) until the retry budget is spent.
//
// Request() speaks the dot-terminated framing of server/line_protocol.h in
// lockstep: send one line, read lines until the terminating "." line. The
// client is not thread-safe; callers serialize (RemoteSubstrate holds one
// mutex per shard connection).

#ifndef BIGINDEX_SERVER_PROTOCOL_CLIENT_H_
#define BIGINDEX_SERVER_PROTOCOL_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bigindex {

struct ProtocolClientOptions {
  /// Per-attempt connect timeout. Covers the TCP handshake only; I/O on an
  /// established connection is not timed out (the server enforces request
  /// deadlines).
  double connect_timeout_ms = 1000;

  /// Total connection attempts (>= 1). Attempt i sleeps
  /// min(backoff_base_ms * 2^(i-1), backoff_cap_ms) before retrying.
  int max_attempts = 4;
  double backoff_base_ms = 50;
  double backoff_cap_ms = 1000;
};

class ProtocolClient {
 public:
  explicit ProtocolClient(std::string host, uint16_t port,
                          ProtocolClientOptions options = {});
  ~ProtocolClient();

  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  /// Establishes the connection, retrying per the options. Unavailable when
  /// the host cannot be reached within the retry budget; InvalidArgument on
  /// an unresolvable host. Idempotent once connected.
  Status Connect();

  /// Sends one request line and reads the full dot-terminated response
  /// block; returns the response lines *without* the terminating ".".
  /// Auto-connects (with the same retry policy) if not connected, and after
  /// an I/O error the next Request() reconnects. Unavailable on connection
  /// loss.
  StatusOr<std::vector<std::string>> Request(const std::string& line);

  /// Request() plus the check every typed reply needs: an empty block or a
  /// head other than "OK ..." fails, an ERR head as the Status it encodes.
  /// On success front() is the OK head.
  StatusOr<std::vector<std::string>> Call(const std::string& line);

  /// Closes the connection (re-openable by the next Connect()/Request()).
  void Disconnect();

  bool connected() const { return fd_ >= 0; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// One non-blocking connect attempt, bounded by connect_timeout_ms.
  Status TryConnectOnce();

  std::string host_;
  uint16_t port_;
  ProtocolClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last consumed line
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_PROTOCOL_CLIENT_H_
