#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace vafs::serve {
namespace {

constexpr int kPollMs = 50;  // stop-flag check cadence
/// At drain, the longest wait for a peer that is mid-frame or not reading.
constexpr std::int64_t kDrainGraceMs = 1000;
/// A connection's first receive buffer: room for dozens of Decide frames.
/// It grows only for a frame that does not fit, and decode_header bounds a
/// frame at kWireHeaderSize + kMaxPayload bytes.
constexpr std::size_t kReceiveBufferSize = 4096;

void append_error_frame(std::vector<std::uint8_t>& out, std::uint64_t stream_id,
                        WireError code) {
  std::vector<std::uint8_t> payload;
  encode_error(payload, code);
  encode_frame(out, MsgType::kError, stream_id, payload);
}

}  // namespace

bool Server::send_all(int fd, const std::uint8_t* buf, std::size_t len) const {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a peer that died mid-reply is an EPIPE error, not a
    // process-killing SIGPIPE — this server is often hosted in-process by
    // tests and benches that do not ignore the signal.
    const ssize_t n = send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A send-timeout tick: a peer that reads nothing holds this thread
      // until a drain has waited its grace.
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && !drain_expired()) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Server::drain_expired() const {
  return stopping_.load(std::memory_order_acquire) &&
         wall_us() >= drain_deadline_us_.load(std::memory_order_relaxed);
}

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    close(listen_fd_);
    listen_fd_ = -1;
    errno = ENAMETOOLONG;
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd_, options_.listen_backlog) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  start_time_ = std::chrono::steady_clock::now();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  drain_deadline_us_.store(wall_us() + kDrainGraceMs * 1000, std::memory_order_relaxed);
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The registry is stable now: only this thread mutates it.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  unlink(options_.socket_path.c_str());
}

std::int64_t Server::wall_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void Server::trace(obs::EventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  if (options_.tracer == nullptr) return;
  std::lock_guard<std::mutex> lock(tracer_mutex_);
  options_.tracer->record(sim::SimTime::micros(wall_us()), kind, a, b, c);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = poll(&pfd, 1, kPollMs);
    if (pr <= 0) continue;
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // A connection thread sleeps in read() or send() and wakes every tick
    // to check the stop flag. Without the timeouts it could sleep through
    // stop(), so a socket that refuses either is closed unserved.
    const timeval tick{0, kPollMs * 1000};
    if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick)) != 0 ||
        setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tick, sizeof(tick)) != 0) {
      close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap finished connections so a long-lived daemon's registry doesn't
    // grow with churn (their threads have already flagged done).
    std::size_t live = 0;
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++live;
        ++it;
      }
    }
    if (live >= options_.max_connections) {
      // Bounded, observable backpressure: one error frame, then close.
      std::vector<std::uint8_t> reply;
      append_error_frame(reply, 0, WireError::kServerOverloaded);
      send_all(fd, reply.data(), reply.size());
      close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      trace(obs::EventKind::kServeReject, next_connection_id_, 0);
      continue;
    }

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::EventKind::kServeConnect, conn->id);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { serve_connection(*raw); });
    connections_.push_back(std::move(conn));
  }
}

void Server::serve_connection(Connection& conn) {
  StreamMap streams;
  // Received bytes not yet parsed are rx[begin, end). A frame is verified
  // and decoded in place once all of it is in, and read() runs only when
  // the buffer lacks a whole header or a whole payload: one read usually
  // serves one frame, and frames that arrive together are answered in
  // order.
  std::vector<std::uint8_t> rx(kReceiveBufferSize);
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<std::uint8_t> reply;

  for (;;) {
    const std::size_t held = end - begin;
    FrameHeader header;
    std::size_t frame_len = kWireHeaderSize;
    if (held >= kWireHeaderSize) {
      const WireError herr = decode_header(rx.data() + begin, header);
      if (herr != WireError::kNone) {
        // The framing itself is broken — byte boundaries are gone, so no
        // reply can be framed reliably. Count it and drop the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id, static_cast<std::uint64_t>(herr));
        if (herr == WireError::kBadVersion || herr == WireError::kOversized) {
          // Header structure was intact: tell the peer why before closing.
          reply.clear();
          append_error_frame(reply, header.stream_id, herr);
          send_all(conn.fd, reply.data(), reply.size());
        }
        break;
      }
      frame_len += header.payload_len;
    }

    if (held < frame_len) {
      if (begin > 0) {  // move the partial frame to the front
        std::memmove(rx.data(), rx.data() + begin, held);
        begin = 0;
        end = held;
      }
      if (rx.size() < frame_len) rx.resize(frame_len);
      const ssize_t n = read(conn.fd, rx.data() + end, rx.size() - end);
      if (n > 0) {
        end += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) break;  // peer closed; a partial frame dies with it
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      // A receive-timeout tick. Between frames a drain request closes the
      // connection now; inside a frame it keeps reading until the drain's
      // grace is over, so the in-flight request is finished and answered.
      if (stopping_.load(std::memory_order_acquire) && (held == 0 || drain_expired())) break;
      continue;
    }

    const std::uint8_t* payload = rx.data() + begin + kWireHeaderSize;
    begin += frame_len;
    reply.clear();
    const WireError perr = verify_payload(header, payload, header.payload_len);
    if (perr != WireError::kNone) {
      // Framing is intact: the connection survives a bad payload.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      trace(obs::EventKind::kServeError, conn.id, static_cast<std::uint64_t>(perr));
      append_error_frame(reply, header.stream_id, perr);
    } else if (!handle_frame(conn, streams, header, payload, header.payload_len, reply)) {
      break;
    }
    if (!reply.empty() && !send_all(conn.fd, reply.data(), reply.size())) break;

    // Drained: the in-flight frame is answered; frames buffered behind it
    // go unanswered.
    if (stopping_.load(std::memory_order_acquire)) break;
  }

  close(conn.fd);
  streams_closed_.fetch_add(streams.size(), std::memory_order_relaxed);
  closed_.fetch_add(1, std::memory_order_relaxed);
  trace(obs::EventKind::kServeDisconnect, conn.id, conn.requests);
  requests_.fetch_add(conn.requests, std::memory_order_relaxed);
  conn.done.store(true, std::memory_order_release);
}

bool Server::handle_frame(Connection& conn, StreamMap& streams, const FrameHeader& header,
                          const std::uint8_t* payload, std::size_t payload_len,
                          std::vector<std::uint8_t>& reply) {
  switch (header.type) {
    case MsgType::kPing:
      encode_frame(reply, MsgType::kPong, header.stream_id, {});
      return true;

    case MsgType::kHello: {
      if (streams.count(header.stream_id) != 0) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kDuplicateStream);
        return true;
      }
      core::DecisionStreamInfo info;
      if (!decode_stream_info(payload, payload_len, info)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id,
              static_cast<std::uint64_t>(WireError::kShortPayload));
        append_error_frame(reply, header.stream_id, WireError::kShortPayload);
        return true;
      }
      try {
        streams.emplace(header.stream_id,
                        std::make_unique<core::DecisionCore>(info.config, info.geometry));
      } catch (const std::invalid_argument&) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kBadGeometry);
        return true;
      }
      streams_opened_.fetch_add(1, std::memory_order_relaxed);
      encode_frame(reply, MsgType::kHelloOk, header.stream_id, {});
      return true;
    }

    case MsgType::kDecide: {
      const auto it = streams.find(header.stream_id);
      if (it == streams.end()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kUnknownStream);
        return true;
      }
      core::DecisionRequest req;
      if (!decode_request(payload, payload_len, req)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kShortPayload);
        return true;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const core::DecisionResponse resp = it->second->decide(req);
      const auto t1 = std::chrono::steady_clock::now();
      const std::uint64_t ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      latency_.record_ns(ns);
      ++conn.requests;
      trace(obs::EventKind::kServeRequest, header.stream_id, ns / 1000,
            static_cast<std::uint64_t>(req.event));
      conn.body.clear();
      encode_response(conn.body, resp);
      encode_frame(reply, MsgType::kDecision, header.stream_id, conn.body);
      return true;
    }

    case MsgType::kClose: {
      const auto it = streams.find(header.stream_id);
      if (it != streams.end()) {
        streams.erase(it);
        streams_closed_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;  // fire-and-forget
    }

    case MsgType::kHelloOk:
    case MsgType::kDecision:
    case MsgType::kPong:
    case MsgType::kError:
      // Server-to-client message types arriving at the server: a confused
      // peer. Answer with an error; keep the (intact) connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      append_error_frame(reply, header.stream_id, WireError::kBadType);
      return true;
  }
  return false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = rejected_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.streams_opened = streams_opened_.load(std::memory_order_relaxed);
  s.streams_closed = streams_closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.latency_p50_us = latency_.percentile_us(0.50);
  s.latency_p95_us = latency_.percentile_us(0.95);
  s.latency_p99_us = latency_.percentile_us(0.99);
  s.latency_mean_us = latency_.mean_us();
  return s;
}

}  // namespace vafs::serve
