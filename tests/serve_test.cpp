// Serving-mode suite: the decision daemon must be *indistinguishable* from
// in-process decisions, bit for bit, and robust as a long-lived process.
//
// Three layers:
//
//   1. Differential: the golden corpus (tests/golden_corpus.h — the same
//      12 sessions golden_test.cpp pins) re-run with every VAFS plan
//      answered over the daemon socket, at client concurrency 1, 8 and
//      64. Each session's obs digest must equal its in-process digest
//      exactly — any divergence in decision values, ordering, or float
//      bits flips a digest.
//
//   2. Isolation and backpressure: a client stalled mid-frame must not
//      perturb any other stream's digest; connections beyond the cap get
//      one observable error frame and a close, bounded and counted.
//
//   3. Byte boundaries: frames coalesced into one send or dribbled one
//      byte per send, a drain that lands mid-frame, a reply the client
//      must reassemble, and no heap allocation per round trip.
//
//   4. Daemon lifecycle (the real vafsd binary, VAFS_VAFSD_PATH):
//      readiness line, SIGTERM drains and exits 0 with clients still
//      connected, and a client reconnects to a restarted daemon — fresh
//      epoch, same digests.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "golden_corpus.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace vafs {
namespace {

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/vafs-st-" + std::to_string(getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Counts heap allocations on every thread while switched on (see the
/// replaced operator new at the end of this file).
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};

core::DecisionStreamInfo test_stream_info() {
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 1200000}, 1.0, 1'200'000.0});
  return info;
}

/// A request that plans (so the reply carries real frequencies).
core::DecisionRequest test_request() {
  core::DecisionRequest req;
  req.event = core::DecisionEvent::kReplan;
  req.now_us = 2'000'000;
  req.player_state = core::DecisionPlayerState::kPlaying;
  req.downloading = true;
  req.decoded_ahead = 12;
  req.decoded_frames = 60;
  req.total_frames = 900;
  req.frame_period_us = 33'333;
  req.current_rep = 1;
  req.throughput_mbps = 4.5;
  return req;
}

/// The Decision payload an in-process DecisionCore gives for `req` as the
/// first request of a fresh stream.
std::vector<std::uint8_t> in_process_reply(const core::DecisionRequest& req) {
  const core::DecisionStreamInfo info = test_stream_info();
  core::DecisionCore core(info.config, info.geometry);
  std::vector<std::uint8_t> payload;
  serve::encode_response(payload, core.decide(req));
  return payload;
}

std::vector<std::uint8_t> frame_of(serve::MsgType type, std::uint64_t stream_id,
                                   const std::vector<std::uint8_t>& payload = {}) {
  std::vector<std::uint8_t> frame;
  serve::encode_frame(frame, type, stream_id, payload);
  return frame;
}

std::vector<std::uint8_t> hello_frame(std::uint64_t stream_id) {
  std::vector<std::uint8_t> payload;
  serve::encode_stream_info(payload, test_stream_info());
  return frame_of(serve::MsgType::kHello, stream_id, payload);
}

std::vector<std::uint8_t> decide_frame(std::uint64_t stream_id,
                                       const core::DecisionRequest& req) {
  std::vector<std::uint8_t> payload;
  serve::encode_request(payload, req);
  return frame_of(serve::MsgType::kDecide, stream_id, payload);
}

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

/// A raw client socket connected to `path`, or -1.
int connect_raw(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const sockaddr_un addr = socket_address(path);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool send_bytes(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  return send_bytes(fd, bytes.data(), bytes.size());
}

/// Reads exactly `len` bytes, waiting at most `timeout_ms` for each read.
bool read_exactly(int fd, std::uint8_t* buf, std::size_t len, int timeout_ms = 5000) {
  while (len > 0) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) return false;
    const ssize_t n = read(fd, buf, len);
    if (n <= 0) return false;
    buf += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one whole frame; false on EOF, error, timeout or a bad frame.
bool read_frame(int fd, serve::FrameHeader* header, std::vector<std::uint8_t>* payload) {
  std::uint8_t head[serve::kWireHeaderSize];
  if (!read_exactly(fd, head, sizeof(head))) return false;
  if (serve::decode_header(head, *header) != serve::WireError::kNone) return false;
  payload->resize(header->payload_len);
  if (!read_exactly(fd, payload->data(), payload->size())) return false;
  return serve::verify_payload(*header, payload->data(), payload->size()) ==
         serve::WireError::kNone;
}

/// True iff the peer closes within `timeout_ms` without sending a byte.
bool reads_eof(int fd, int timeout_ms = 5000) {
  pollfd pfd{fd, POLLIN, 0};
  if (poll(&pfd, 1, timeout_ms) <= 0) return false;
  std::uint8_t byte = 0;
  return read(fd, &byte, 1) == 0;
}

/// A minimal stand-in for the daemon: accepts one connection on a fresh
/// socket and runs `handler` on it in a thread, so a test controls every
/// byte the client receives.
class RawServer {
 public:
  explicit RawServer(std::function<void(int)> handler)
      : path_(unique_socket_path("raw")), handler_(std::move(handler)) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    const sockaddr_un addr = socket_address(path_);
    unlink(path_.c_str());
    ok_ = listen_fd_ >= 0 &&
          bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
          listen(listen_fd_, 1) == 0;
    if (ok_) {
      thread_ = std::thread([this] {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        handler_(fd);
        close(fd);
      });
    }
  }
  ~RawServer() {
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept() still waiting
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) close(listen_fd_);
    unlink(path_.c_str());
  }

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::function<void(int)> handler_;
  int listen_fd_ = -1;
  bool ok_ = false;
  std::thread thread_;
};

/// Reads one request frame on a raw server's connection.
bool read_request(int fd, serve::FrameHeader* header) {
  std::vector<std::uint8_t> payload;
  return read_frame(fd, header, &payload);
}

/// Runs one corpus case with a digest-only tracer, optionally through a
/// decision backend; returns the session's trace digest.
std::uint64_t run_case_digest(const golden::GoldenCase& c,
                              core::DecisionBackend* backend) {
  obs::Tracer tracer{obs::Tracer::Config{0}};
  core::SessionHooks hooks;
  hooks.tracer = &tracer;
  hooks.decision_backend = backend;
  const core::SessionResult result = core::run_session(c.config, hooks);
  EXPECT_TRUE(result.finished);
  return tracer.digest();
}

/// In-process reference digests, computed once per binary run.
const std::map<std::string, std::uint64_t>& reference_digests() {
  static const std::map<std::string, std::uint64_t> digests = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : golden::golden_cases()) {
      out[c.name] = run_case_digest(c, nullptr);
    }
    return out;
  }();
  return digests;
}

class ServeDifferential : public ::testing::TestWithParam<int> {};

// The tentpole proof: every corpus session answered by the daemon yields
// the identical digest, at any client concurrency. Work items cycle
// through the corpus and outnumber the threads, so at concurrency 64 the
// daemon multiplexes 64 simultaneous connections x interleaved streams.
TEST_P(ServeDifferential, DaemonDigestsMatchInProcessBitwise) {
  const int concurrency = GetParam();
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();

  serve::Server server({unique_socket_path("diff"), 256, 128, nullptr});
  ASSERT_TRUE(server.start());
  serve::SocketBackend backend(server.socket_path());

  // At least one full corpus pass, and enough items to keep every thread
  // busy with a non-trivial share.
  const std::size_t items =
      std::max(cases.size(), static_cast<std::size_t>(concurrency) * 2);
  std::vector<std::uint64_t> digests(items, 0);
  std::vector<std::string> errors(items);
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items) return;
      try {
        digests[i] = run_case_digest(cases[i % cases.size()], &backend);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < concurrency; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < items; ++i) {
    const auto& c = cases[i % cases.size()];
    SCOPED_TRACE(c.name + " (item " + std::to_string(i) + ")");
    EXPECT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(digests[i], reference.at(c.name))
        << "daemon-served session diverged from in-process";
  }

  server.stop();
  const serve::ServerStats stats = server.stats();
  // One stream per *vafs* session: only the vafs governor consults the
  // decision core; the other corpus governors never open a stream.
  std::uint64_t vafs_items = 0;
  for (std::size_t i = 0; i < items; ++i) {
    if (cases[i % cases.size()].config.governor == "vafs") ++vafs_items;
  }
  EXPECT_EQ(stats.streams_opened, vafs_items);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, ServeDifferential, ::testing::Values(1, 8, 64));

// A Hello whose roles name a cluster the geometry lacks is refused by the
// decoder, whatever the cluster count.
TEST(ServeWire, HelloWithRolesOutsideTheGeometryIsRefused) {
  core::DecisionStreamInfo info = test_stream_info();  // one cluster
  core::DecisionStreamInfo decoded;
  std::vector<std::uint8_t> payload;
  serve::encode_stream_info(payload, info);
  ASSERT_TRUE(serve::decode_stream_info(payload.data(), payload.size(), decoded));
  info.geometry.network = 1;
  payload.clear();
  serve::encode_stream_info(payload, info);
  EXPECT_FALSE(serve::decode_stream_info(payload.data(), payload.size(), decoded));
}

/// The error code of the Error frame the server answers `frame` with.
serve::WireError error_reply(int fd, const std::vector<std::uint8_t>& frame) {
  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  serve::WireError code = serve::WireError::kNone;
  if (!send_bytes(fd, frame) || !read_frame(fd, &header, &payload) ||
      header.type != serve::MsgType::kError ||
      !serve::decode_error(payload.data(), payload.size(), code)) {
    ADD_FAILURE() << "no Error frame in reply";
  }
  return code;
}

// A payload is its fields and nothing after them. A Hello with 3 trailing
// bytes and a Decide with 1 are refused with the short-payload error, and
// the connection, whose framing is intact, goes on serving.
TEST(ServeWire, PayloadsWithTrailingBytesAreRefused) {
  serve::Server server({unique_socket_path("trailing"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);

  std::vector<std::uint8_t> hello;
  serve::encode_stream_info(hello, test_stream_info());
  hello.insert(hello.end(), {0, 0, 0});
  EXPECT_EQ(error_reply(fd, frame_of(serve::MsgType::kHello, 0, hello)),
            serve::WireError::kShortPayload);

  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(send_bytes(fd, hello_frame(0)));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  ASSERT_EQ(header.type, serve::MsgType::kHelloOk);

  const core::DecisionRequest req = test_request();
  std::vector<std::uint8_t> decide;
  serve::encode_request(decide, req);
  decide.push_back(0);
  EXPECT_EQ(error_reply(fd, frame_of(serve::MsgType::kDecide, 0, decide)),
            serve::WireError::kShortPayload);

  ASSERT_TRUE(send_bytes(fd, decide_frame(0, req)));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kDecision);
  EXPECT_EQ(payload, in_process_reply(req));

  close(fd);
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 2u);
  EXPECT_EQ(server.stats().streams_opened, 1u);
  EXPECT_EQ(server.stats().requests, 1u);
}

// The corpus runs the one-cluster default device. Multi-cluster devices
// send per-cluster tables, penalties, capacities and the primary/network
// roles over the wire and get one target per cluster back; each served
// session must still match its in-process digest.
TEST(ServeMultiCluster, DaemonDigestsMatchInProcessBitwise) {
  std::vector<golden::GoldenCase> cases;
  for (const char* device : {"midrange", "flagship"}) {
    for (const core::NetProfile net : {core::NetProfile::kFair, core::NetProfile::kPoor}) {
      for (const bool race_to_idle : {true, false}) {
        core::SessionConfig config;
        config.governor = "vafs";
        config.profile = device::profile(device);
        config.seed = golden::kGoldenSeed;
        config.media_duration = sim::SimTime::seconds(20);
        config.net = net;
        config.vafs.race_to_idle_downloads = race_to_idle;
        cases.push_back({std::string(device) + "." + core::net_profile_name(net) +
                             (race_to_idle ? "" : ".burst"),
                         config});
      }
    }
  }

  serve::Server server({unique_socket_path("multi"), 16, 16, nullptr});
  ASSERT_TRUE(server.start());
  serve::SocketBackend backend(server.socket_path());
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(run_case_digest(c, &backend), run_case_digest(c, nullptr));
  }
  server.stop();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.streams_opened, cases.size());
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// A client wedged mid-frame (header sent, payload never arrives) must not
// perturb concurrent streams: connections are fully isolated, so every
// other session still matches its in-process digest.
TEST(ServeIsolation, StalledClientDoesNotPerturbOtherStreams) {
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();

  serve::Server server({unique_socket_path("stall"), 64, 16, nullptr});
  ASSERT_TRUE(server.start());

  // The stalled client: a raw socket that sends only the first half of a
  // valid Decide frame and then goes silent.
  const int stalled = connect_raw(server.socket_path());
  ASSERT_GE(stalled, 0);
  std::vector<std::uint8_t> frame;
  serve::encode_frame(frame, serve::MsgType::kDecide, 0,
                      std::vector<std::uint8_t>(64, 0xAB));
  ASSERT_EQ(write(stalled, frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));

  // Meanwhile: a full corpus pass at concurrency 4.
  serve::SocketBackend backend(server.socket_path());
  std::vector<std::uint64_t> digests(cases.size(), 0);
  std::vector<std::string> errors(cases.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cases.size()) return;
      try {
        digests[i] = run_case_digest(cases[i], &backend);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(digests[i], reference.at(cases[i].name));
  }

  close(stalled);
  server.stop();
}

// Beyond max_connections the server still answers: one kServerOverloaded
// error frame, then a close — bounded, observable, counted.
TEST(ServeBackpressure, OverCapConnectionsGetOneErrorFrameAndAClose) {
  serve::ServerOptions opts{unique_socket_path("cap"), 1, 16, nullptr};
  serve::Server server(std::move(opts));
  ASSERT_TRUE(server.start());

  serve::ServeConnection first(server.socket_path());
  ASSERT_TRUE(first.ping());  // occupies the single slot

  const core::DecisionStreamInfo info = test_stream_info();
  for (int i = 0; i < 3; ++i) {
    serve::ServeConnection rejected(server.socket_path());
    // The overload error frame arrives either as the reply to the hello
    // or as a transport failure if the close raced the send — both are
    // clean SessionErrors; a hang or a crash is the only wrong answer.
    EXPECT_THROW(rejected.open_stream(info), core::SessionError);
  }
  // The accepted connection is unaffected throughout.
  EXPECT_TRUE(first.ping());

  server.stop();
  EXPECT_EQ(server.stats().connections_rejected, 3u);
}

// ---------------------------------------------------------------------------
// Byte boundaries: the server parses frames out of whatever one read()
// returned, and the client reassembles its reply from whatever arrives.

// Five frames in one send(): each is answered, in order, with no further
// byte from the client (Close has no reply).
TEST(ServeFraming, CoalescedFramesAreEachAnsweredInOrder) {
  serve::Server server({unique_socket_path("coalesce"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);

  const core::DecisionRequest req = test_request();
  std::vector<std::uint8_t> bytes;
  for (const std::vector<std::uint8_t>& f :
       {frame_of(serve::MsgType::kPing, 0), hello_frame(3), decide_frame(3, req),
        frame_of(serve::MsgType::kClose, 3), frame_of(serve::MsgType::kPing, 0)}) {
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kPong);
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kHelloOk);
  EXPECT_EQ(header.stream_id, 3u);
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kDecision);
  EXPECT_EQ(header.stream_id, 3u);
  EXPECT_EQ(payload, in_process_reply(req));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kPong);

  close(fd);
  server.stop();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.streams_opened, 1u);
  EXPECT_EQ(stats.streams_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// One Decide frame sent one byte per send() gets exactly one reply: the
// next frame on the connection answers the Ping sent after it.
TEST(ServeFraming, DribbledFrameGetsExactlyOneReply) {
  serve::Server server({unique_socket_path("dribble"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(send_bytes(fd, hello_frame(0)));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  ASSERT_EQ(header.type, serve::MsgType::kHelloOk);

  const core::DecisionRequest req = test_request();
  const std::vector<std::uint8_t> frame = decide_frame(0, req);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(send_bytes(fd, &byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kDecision);
  EXPECT_EQ(payload, in_process_reply(req));

  ASSERT_TRUE(send_bytes(fd, frame_of(serve::MsgType::kPing, 0)));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kPong);

  close(fd);
  server.stop();
  EXPECT_EQ(server.stats().requests, 1u);
}

// A Hello from a version-1 peer, whose geometry carried one more byte, is
// refused from its header: a kBadVersion error frame, then a close.
TEST(ServeFraming, OldVersionPeerGetsBadVersionAndAClose) {
  serve::Server server({unique_socket_path("version"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> frame = hello_frame(0);
  frame[6] = serve::kWireVersion - 1;  // the version byte
  ASSERT_TRUE(send_bytes(fd, frame));
  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  ASSERT_EQ(header.type, serve::MsgType::kError);
  serve::WireError code = serve::WireError::kNone;
  ASSERT_TRUE(serve::decode_error(payload.data(), payload.size(), code));
  EXPECT_EQ(code, serve::WireError::kBadVersion);
  EXPECT_TRUE(reads_eof(fd));
  close(fd);
  server.stop();
  EXPECT_EQ(server.stats().streams_opened, 0u);
}

// stop() lands while half a Decide frame is buffered: the connection keeps
// reading, answers the frame once the rest arrives, then closes, and stop()
// returns within the drain grace (1000 ms) plus one stop-flag tick (50 ms).
TEST(ServeFraming, DrainAnswersTheFrameInFlightThenCloses) {
  serve::Server server({unique_socket_path("drain"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  serve::FrameHeader header;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(send_bytes(fd, hello_frame(0)));
  ASSERT_TRUE(read_frame(fd, &header, &payload));
  ASSERT_EQ(header.type, serve::MsgType::kHelloOk);

  const core::DecisionRequest req = test_request();
  const std::vector<std::uint8_t> frame = decide_frame(0, req);
  const std::size_t half = frame.size() / 2;
  ASSERT_TRUE(send_bytes(fd, frame.data(), half));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::chrono::steady_clock::duration stop_took{};
  std::thread stopper([&] {
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    stop_took = std::chrono::steady_clock::now() - t0;
  });
  // Past two ticks, so the connection has seen the stop flag mid-frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(send_bytes(fd, frame.data() + half, frame.size() - half));

  EXPECT_TRUE(read_frame(fd, &header, &payload));
  EXPECT_EQ(header.type, serve::MsgType::kDecision);
  EXPECT_EQ(payload, in_process_reply(req));
  EXPECT_TRUE(reads_eof(fd));
  stopper.join();
  EXPECT_LT(stop_took, std::chrono::milliseconds(1000 + 50));
  close(fd);
}

// A client that sends Pings and never reads a Pong fills both directions
// until the connection thread sleeps in send(). stop() must still return
// within the drain grace (1000 ms) plus two stop-flag ticks (50 ms each);
// the client closes after 4 s, so a stop() that waits for it cannot hang
// the test.
TEST(ServeFraming, DrainGivesUpOnAPeerThatNeverReads) {
  serve::Server server({unique_socket_path("noread"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);

  // Whole Ping frames back to back, sent as one endless stream: a short
  // send resumes mid-frame, so framing holds. The sockets are full once
  // four sends in a row, 50 ms apart, take nothing.
  std::vector<std::uint8_t> pings;
  for (int i = 0; i < 256; ++i) {
    const std::vector<std::uint8_t> ping = frame_of(serve::MsgType::kPing, 0, {});
    pings.insert(pings.end(), ping.begin(), ping.end());
  }
  std::size_t offset = 0;
  std::size_t sent = 0;
  for (int idle = 0; idle < 4;) {
    const ssize_t n = send(fd, pings.data() + offset, pings.size() - offset,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      offset = (offset + static_cast<std::size_t>(n)) % pings.size();
      sent += static_cast<std::size_t>(n);
      idle = 0;
      ASSERT_LT(sent, std::size_t{64} << 20) << "the server never stopped reading";
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
    ++idle;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::atomic<bool> stopped{false};
  std::chrono::steady_clock::duration stop_took{};
  std::thread stopper([&] {
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    stop_took = std::chrono::steady_clock::now() - t0;
    stopped.store(true);
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(4);
  while (!stopped.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  close(fd);
  stopper.join();
  EXPECT_LT(stop_took, std::chrono::milliseconds(1000 + 2 * 50)) << sent << " bytes sent";
}

// The client reassembles a reply that arrives in three writes, the first
// ending mid-header.
TEST(ServeClient, ReassemblesAReplySplitAcrossWrites) {
  core::DecisionResponse want;
  want.planned = true;
  want.boosted = true;
  want.decode_cluster = 1;
  want.cluster_count = 2;
  want.target_khz[0] = 600000;
  want.target_khz[1] = 1'800'000;
  want.decode_mape = 0.1234567890123;
  RawServer daemon([&](int fd) {
    serve::FrameHeader request;
    if (!read_request(fd, &request)) return;
    std::vector<std::uint8_t> body;
    serve::encode_response(body, want);
    const std::vector<std::uint8_t> reply =
        frame_of(serve::MsgType::kDecision, request.stream_id, body);
    for (const auto& [from, to] : {std::pair<std::size_t, std::size_t>{0, 10},
                                  {10, serve::kWireHeaderSize + 5},
                                  {serve::kWireHeaderSize + 5, reply.size()}}) {
      send_bytes(fd, reply.data() + from, to - from);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  ASSERT_TRUE(daemon.ok());

  serve::ServeConnection conn(daemon.path());
  const core::DecisionResponse got = conn.decide(5, test_request());
  EXPECT_FALSE(conn.broken());
  std::vector<std::uint8_t> got_bytes, want_bytes;
  serve::encode_response(got_bytes, got);
  serve::encode_response(want_bytes, want);
  EXPECT_EQ(got_bytes, want_bytes);
}

// One request gets one reply: bytes after it break the connection.
TEST(ServeClient, BytesAfterTheReplyBreakTheConnection) {
  RawServer daemon([](int fd) {
    serve::FrameHeader request;
    if (!read_request(fd, &request)) return;
    std::vector<std::uint8_t> body;
    serve::encode_response(body, core::DecisionResponse{});
    std::vector<std::uint8_t> bytes = frame_of(serve::MsgType::kDecision, request.stream_id, body);
    const std::vector<std::uint8_t> extra = frame_of(serve::MsgType::kPong, 0);
    bytes.insert(bytes.end(), extra.begin(), extra.end());
    send_bytes(fd, bytes);  // one write: the client's one read sees both
    std::uint8_t byte = 0;
    while (read(fd, &byte, 1) > 0) {
    }
  });
  ASSERT_TRUE(daemon.ok());

  serve::ServeConnection conn(daemon.path());
  EXPECT_THROW(conn.decide(0, test_request()), core::SessionError);
  EXPECT_TRUE(conn.broken());
}

// In steady state a round trip allocates nothing on either end. The
// requests skip the plan, whose decision-core arithmetic is not part of
// the transport; every other step of a Decide (encode, send, the server's
// read, verify, decode, reply encode, the client's read and decode) runs.
TEST(ServeAllocation, SteadyStateRoundTripsAllocateNothing) {
  serve::Server server({unique_socket_path("alloc"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  serve::ServeConnection conn(server.socket_path());
  const std::uint64_t stream = conn.open_stream(test_stream_info());
  core::DecisionRequest req = test_request();
  req.want_plan = false;
  for (int i = 0; i < 100; ++i) conn.decide(stream, req);  // warm every buffer

  int pongs = 0;
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 1000; ++i) {
    conn.decide(stream, req);
    pongs += conn.ping() ? 1 : 0;
  }
  g_count_allocations.store(false);

  EXPECT_EQ(pongs, 1000);
  EXPECT_EQ(g_allocations.load(), 0u);
  server.stop();
}

// The counter sees nothrow allocations too, and they pair with the replaced
// delete: an ASan build aborts on an alloc-dealloc mismatch otherwise. The
// allocation function is called directly, which no compiler may elide.
TEST(ServeAllocation, NothrowAllocationsAreCounted) {
  g_allocations.store(0);
  g_count_allocations.store(true);
  void* p = ::operator new(sizeof(int), std::nothrow);
  g_count_allocations.store(false);
  EXPECT_NE(p, nullptr);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load(), 1u);
}

// ---------------------------------------------------------------------------
// Daemon lifecycle: the real vafsd binary.

class VafsdProcess {
 public:
  /// Starts `vafsd --socket socket_path extra_args...`.
  explicit VafsdProcess(std::string socket_path, std::vector<std::string> extra_args = {})
      : socket_path_(std::move(socket_path)) {
    std::vector<std::string> args = {"vafsd", "--socket", socket_path_};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      execv(VAFS_VAFSD_PATH, argv.data());
      _exit(127);
    }
  }

  ~VafsdProcess() {
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }

  /// True once the daemon answers a ping (bounded wait).
  bool wait_ready(int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        serve::ServeConnection probe(socket_path_);
        if (probe.ping()) return true;
      } catch (const core::SessionError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Waits (bounded) for exit; returns the raw wait status, or -1 on
  /// timeout.
  int wait_exit(int timeout_ms = 10000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  bool reaped_ = false;
};

// SIGTERM with clients connected and streams open: drain, then exit 0.
TEST(VafsdLifecycle, SigtermDrainsAndExitsZero) {
  const std::string socket = unique_socket_path("term");
  VafsdProcess daemon(socket);
  ASSERT_GT(daemon.pid(), 0);
  ASSERT_TRUE(daemon.wait_ready());

  // A connected client with a live stream must not block the drain.
  serve::ServeConnection conn(socket);
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 1200000}, 1.0, 1'200'000.0});
  const std::uint64_t stream = conn.open_stream(info);
  (void)stream;

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const int status = daemon.wait_exit();
  ASSERT_NE(status, -1) << "vafsd did not exit within the drain window";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drained daemon's socket is gone: further requests fail cleanly.
  core::DecisionRequest req;
  req.event = core::DecisionEvent::kQueryStats;
  EXPECT_THROW(conn.decide(stream, req), core::SessionError);
}

// Kill the daemon, restart it on the same socket: the backend notices the
// broken connection, reconnects, and a fresh-epoch session produces the
// exact in-process digest (the new daemon shares no state with the old).
TEST(VafsdLifecycle, ClientReconnectsAfterRestartWithFreshEpoch) {
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();
  const golden::GoldenCase& c = cases.front();

  const std::string socket = unique_socket_path("restart");
  serve::SocketBackend backend(socket);

  {
    VafsdProcess daemon(socket);
    ASSERT_GT(daemon.pid(), 0);
    ASSERT_TRUE(daemon.wait_ready());
    EXPECT_EQ(run_case_digest(c, &backend), reference.at(c.name));
    ASSERT_EQ(kill(daemon.pid(), SIGKILL), 0);  // simulated crash, no drain
    ASSERT_NE(daemon.wait_exit(), -1);
  }

  VafsdProcess daemon2(socket);
  ASSERT_GT(daemon2.pid(), 0);
  ASSERT_TRUE(daemon2.wait_ready());

  // The first attempt may hit the stale connection (discovered broken and
  // replaced on the retry); the retry must succeed with the exact digest.
  std::uint64_t digest = 0;
  try {
    digest = run_case_digest(c, &backend);
  } catch (const core::SessionError&) {
    digest = run_case_digest(c, &backend);
  }
  EXPECT_EQ(digest, reference.at(c.name));

  ASSERT_EQ(kill(daemon2.pid(), SIGTERM), 0);
  const int status = daemon2.wait_exit();
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Unknown flags and a missing --socket are usage errors (exit 2), so a
// mis-deployed daemon fails loudly instead of binding a default path.
TEST(VafsdLifecycle, BadUsageExitsTwo) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Redirect stderr away from the test log.
    execl(VAFS_VAFSD_PATH, "vafsd", "--definitely-not-a-flag",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);

  // --max-connections must parse whole to an integer >= 1. Accepting one
  // of these would start a daemon that announces readiness and then
  // refuses every client (0) or serves without a limit (a wrapped or
  // saturated value).
  for (const char* value : {"abc", "0", "-1", "99999999999999999999"}) {
    SCOPED_TRACE(value);
    VafsdProcess daemon(unique_socket_path("maxconn"), {"--max-connections", value});
    ASSERT_GT(daemon.pid(), 0);
    const int bad_status = daemon.wait_exit();
    ASSERT_NE(bad_status, -1) << "vafsd accepted the value and kept running";
    ASSERT_TRUE(WIFEXITED(bad_status));
    EXPECT_EQ(WEXITSTATUS(bad_status), 2);
  }
}

}  // namespace
}  // namespace vafs

// Replaced global allocation functions: identical to the default ones
// except for the count ServeAllocation reads. Kept out of line, so the
// compiler pairs each new with this delete, not with its std::free. The
// nothrow new is replaced too: a sanitizer's own nothrow new would hand
// the replaced delete memory that std::free does not own.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (vafs::g_count_allocations.load(std::memory_order_relaxed)) {
    vafs::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
