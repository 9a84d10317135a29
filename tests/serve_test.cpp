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
//   3. Daemon lifecycle (the real vafsd binary, VAFS_VAFSD_PATH):
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
#include <cstring>
#include <map>
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
  int stalled = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.socket_path().c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(connect(stalled, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
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

  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 1200000}, 1.0, 1'200'000.0});
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
