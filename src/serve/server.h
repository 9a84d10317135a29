// The VAFS decision daemon: a Unix-domain socket server multiplexing many
// per-connection decision streams.
//
// Threading model: one accept thread plus one thread per connection. A
// connection owns its streams outright — stream ids are connection-scoped
// and every DecisionCore is touched only by its connection's thread, so
// the server holds no cross-connection state and per-stream decision
// order is exactly the client's send order (the determinism proof's load-
// bearing property). Shared state is limited to relaxed-atomic counters,
// the connection registry, and an optional mutex-guarded tracer.
//
// Reads: a connection thread sleeps in read() on a socket whose receive
// timeout is one stop-flag tick, and one buffered read usually serves one
// frame; the accept thread polls the listener at the same tick.
//
// Shutdown: stop() (or SIGTERM in vafsd) flips a flag every thread checks
// at least once a tick. Connection threads finish the frame currently in
// flight — including one mid-read — answer it, then close; the accept
// thread stops taking new work immediately. stop() joins everything and unlinks the
// socket, so a drained daemon exits 0 with no request dropped mid-answer.
//
// Backpressure: at most `max_connections` live connections. Beyond that
// the listener still accepts (the kernel backlog stays bounded), answers
// a single kServerOverloaded error frame, and closes — observable by the
// client and counted in stats().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "serve/stats.h"
#include "serve/wire.h"

namespace vafs::serve {

struct ServerOptions {
  std::string socket_path;
  /// Live-connection cap; further clients get an error frame and a close.
  std::size_t max_connections = 1024;
  /// Kernel accept backlog.
  int listen_backlog = 128;
  /// Optional request-span tracing on Track::kServe (mutex-guarded; meant
  /// for tests and small runs, not the 1000-stream benchmark).
  obs::Tracer* tracer = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept thread. False (with errno
  /// intact) if the socket could not be bound.
  bool start();

  /// Requests drain, joins all threads, unlinks the socket. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Point-in-time snapshot of counters and merged latency percentiles.
  ServerStats stats() const;

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::thread thread;
    std::atomic<bool> done{false};
    // Connection-thread-local until disconnect:
    std::uint64_t requests = 0;
    std::vector<std::uint8_t> body;  // Decision payload, reused by every request
  };
  /// Connection-scoped stream table: only the owning thread touches it.
  using StreamMap = std::map<std::uint64_t, std::unique_ptr<core::DecisionCore>>;

  void accept_loop();
  void serve_connection(Connection& conn);
  /// One verified frame, its payload read in place from the receive
  /// buffer: dispatch and build the reply frame(s) into `reply`.
  /// Returns false to drop the connection (unanswerable violation).
  bool handle_frame(Connection& conn, StreamMap& streams, const FrameHeader& header,
                    const std::uint8_t* payload, std::size_t payload_len,
                    std::vector<std::uint8_t>& reply);
  void trace(obs::EventKind kind, std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0);
  std::int64_t wall_us() const;
  /// Sends all of `buf`, retrying send-timeout ticks until the drain's
  /// grace is over.
  bool send_all(int fd, const std::uint8_t* buf, std::size_t len) const;
  /// True once stop() has waited kDrainGraceMs (server.cpp) for peers that
  /// are mid-frame or not reading their replies.
  bool drain_expired() const;

  ServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> drain_deadline_us_{0};  // wall_us() at which a drain gives up
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 0;

  // Aggregate counters (relaxed; exact once quiesced).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> streams_opened_{0};
  std::atomic<std::uint64_t> streams_closed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  LatencyHistogram latency_;

  std::mutex tracer_mutex_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace vafs::serve
