#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>

#include "core/session.h"

namespace vafs::serve {
namespace {

[[noreturn]] void throw_transport(const char* what) {
  throw core::SessionError(std::string("serve: ") + what);
}

bool write_all(int fd, const std::uint8_t* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a dead daemon surfaces as a SessionError via EPIPE,
    // never as a SIGPIPE killing the client process.
    const ssize_t n = send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Room for every reply the daemon sends (the largest, a Decision, is 75
/// bytes); a longer frame grows the buffer to fit.
constexpr std::size_t kReplyBufferSize = 256;

}  // namespace

ServeConnection::ServeConnection(const std::string& socket_path) : rx_(kReplyBufferSize) {
  fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_transport("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    close(fd_);
    fd_ = -1;
    throw_transport("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd_);
    fd_ = -1;
    throw_transport("connect failed (daemon not running?)");
  }
}

ServeConnection::~ServeConnection() {
  if (fd_ >= 0) close(fd_);
}

void ServeConnection::fail(const char* what) {
  broken_ = true;
  throw_transport(what);
}

FrameHeader ServeConnection::round_trip(MsgType type, std::uint64_t stream_id) {
  tx_.clear();
  encode_frame(tx_, type, stream_id, payload_);
  if (!write_all(fd_, tx_.data(), tx_.size())) fail("connection lost on send");

  // Read until the whole reply frame is in; usually the first read brings
  // all of it.
  FrameHeader header;
  bool have_header = false;
  std::size_t frame_len = kWireHeaderSize;
  std::size_t got = 0;
  while (got < frame_len) {
    const ssize_t n = read(fd_, rx_.data() + got, rx_.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("connection lost awaiting reply");
    got += static_cast<std::size_t>(n);
    if (!have_header && got >= kWireHeaderSize) {
      if (decode_header(rx_.data(), header) != WireError::kNone) fail("malformed reply header");
      have_header = true;
      frame_len += header.payload_len;
      if (rx_.size() < frame_len) rx_.resize(frame_len);
    }
  }
  // One request, one reply: anything after it is not ours to read.
  if (got > frame_len) fail("unexpected bytes after the reply");
  if (verify_payload(header, reply_payload(), header.payload_len) != WireError::kNone) {
    fail("reply checksum mismatch");
  }
  return header;
}

std::uint64_t ServeConnection::open_stream(const core::DecisionStreamInfo& info) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_stream_id_++;
  payload_.clear();
  encode_stream_info(payload_, info);
  const FrameHeader reply = round_trip(MsgType::kHello, id);
  if (reply.type == MsgType::kError) {
    WireError code = WireError::kNone;
    decode_error(reply_payload(), reply.payload_len, code);
    throw core::SessionError(std::string("serve: stream rejected: ") + wire_error_name(code));
  }
  if (reply.type != MsgType::kHelloOk) throw_transport("unexpected reply to hello");
  return id;
}

core::DecisionResponse ServeConnection::decide(std::uint64_t stream_id,
                                               const core::DecisionRequest& req) {
  std::lock_guard<std::mutex> lock(mutex_);
  payload_.clear();
  encode_request(payload_, req);
  const FrameHeader reply = round_trip(MsgType::kDecide, stream_id);
  if (reply.type == MsgType::kError) {
    WireError code = WireError::kNone;
    decode_error(reply_payload(), reply.payload_len, code);
    throw core::SessionError(std::string("serve: decide failed: ") + wire_error_name(code));
  }
  if (reply.type != MsgType::kDecision) throw_transport("unexpected reply to decide");
  core::DecisionResponse resp;
  if (!decode_response(reply_payload(), reply.payload_len, resp)) {
    fail("malformed decision payload");
  }
  return resp;
}

void ServeConnection::close_stream(std::uint64_t stream_id) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (broken_ || fd_ < 0) return;
  payload_.clear();
  tx_.clear();
  encode_frame(tx_, MsgType::kClose, stream_id, payload_);
  if (!write_all(fd_, tx_.data(), tx_.size())) broken_ = true;
}

bool ServeConnection::ping() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    payload_.clear();
    return round_trip(MsgType::kPing, 0).type == MsgType::kPong;
  } catch (const core::SessionError&) {
    return false;
  }
}

std::shared_ptr<ServeConnection> SocketBackend::thread_connection() {
  // One connection per (backend, thread). Keyed by a process-unique
  // backend id, not the pointer, so a recycled address never resurrects a
  // connection to an older daemon.
  thread_local std::map<std::uint64_t, std::shared_ptr<ServeConnection>> per_thread;
  auto& slot = per_thread[id_];
  if (!slot || slot->broken()) slot = nullptr;
  if (!slot) {
    slot = std::make_shared<ServeConnection>(socket_path_);
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

std::unique_ptr<core::DecisionStream> SocketBackend::open(
    const core::DecisionStreamInfo& info) {
  std::shared_ptr<ServeConnection> conn = thread_connection();
  const std::uint64_t id = conn->open_stream(info);
  return std::make_unique<RemoteDecisionStream>(std::move(conn), id);
}

namespace {
std::atomic<std::uint64_t> g_backend_ids{1};
}

std::uint64_t SocketBackend::allocate_id() {
  return g_backend_ids.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace vafs::serve
