// Client side of the decision daemon protocol.
//
// ServeConnection is one Unix-socket connection: it frames messages,
// verifies reply checksums, and serializes round trips with a mutex so
// several streams can share it. RemoteDecisionStream adapts one (conn,
// stream id) pair to the core::DecisionStream interface — any transport
// or server failure surfaces as core::SessionError, which the session
// layer already captures per task. SocketBackend is the piece the fleet
// plugs in: a DecisionBackend handing each worker thread its own lazily
// opened connection (one socket per thread, ids allocated per connection,
// zero cross-thread sharing).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decision_core.h"
#include "serve/wire.h"

namespace vafs::serve {

class ServeConnection {
 public:
  /// Connects to the daemon at `socket_path`; throws core::SessionError
  /// if the connect fails.
  explicit ServeConnection(const std::string& socket_path);
  ~ServeConnection();

  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  /// Opens a daemon-side stream and returns its connection-scoped id.
  std::uint64_t open_stream(const core::DecisionStreamInfo& info);
  /// One decision round trip. Throws core::SessionError on transport
  /// failure or a server-side error reply.
  core::DecisionResponse decide(std::uint64_t stream_id, const core::DecisionRequest& req);
  /// Fire-and-forget stream close (best effort; errors ignored).
  void close_stream(std::uint64_t stream_id) noexcept;
  /// Health probe: true iff the daemon answered the ping.
  bool ping() noexcept;

  /// True after any transport failure: the connection is dead and every
  /// further call will throw. SocketBackend uses this to reconnect.
  bool broken() const { return broken_; }

 private:
  /// Sends `payload_` as one frame, then reads the one reply frame into
  /// `rx_` and verifies it; its payload is reply_payload(). Throws
  /// core::SessionError on any transport or protocol failure; a kError
  /// reply is returned to the caller for classification.
  FrameHeader round_trip(MsgType type, std::uint64_t stream_id);
  const std::uint8_t* reply_payload() const { return rx_.data() + kWireHeaderSize; }
  /// Marks the connection broken and throws core::SessionError.
  [[noreturn]] void fail(const char* what);

  std::mutex mutex_;
  int fd_ = -1;
  bool broken_ = false;
  std::uint64_t next_stream_id_ = 0;
  // Request payload, request frame and reply frame, reused by every call
  // under mutex_, so a round trip allocates nothing.
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> tx_;
  std::vector<std::uint8_t> rx_;
};

/// One remote decision stream (shared connection + id).
class RemoteDecisionStream final : public core::DecisionStream {
 public:
  RemoteDecisionStream(std::shared_ptr<ServeConnection> conn, std::uint64_t stream_id)
      : conn_(std::move(conn)), stream_id_(stream_id) {}
  ~RemoteDecisionStream() override { conn_->close_stream(stream_id_); }

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    return conn_->decide(stream_id_, request);
  }

 private:
  std::shared_ptr<ServeConnection> conn_;
  std::uint64_t stream_id_;
};

/// DecisionBackend over the daemon socket. Thread-compatible with the
/// experiment/fleet runners: each calling thread gets its own connection
/// (created on first open), so worker parallelism maps to connection
/// concurrency with no shared socket state between workers.
class SocketBackend final : public core::DecisionBackend {
 public:
  explicit SocketBackend(std::string socket_path) : socket_path_(std::move(socket_path)) {}

  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override;

  const std::string& socket_path() const { return socket_path_; }
  /// Connections opened so far (monotonic; for tests/benchmarks).
  std::uint64_t connections_opened() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  static std::uint64_t allocate_id();
  std::shared_ptr<ServeConnection> thread_connection();

  std::string socket_path_;
  std::uint64_t id_ = allocate_id();
  std::atomic<std::uint64_t> connections_{0};
};

}  // namespace vafs::serve
