// S1: decision-serving latency and throughput under fleet-scale load.
//
// `--jobs` client threads each keep ceil(1024 / jobs) sessions live at
// once, so the daemon multiplexes >= 1024 concurrent decision streams over
// one Unix-socket connection per thread. A thread takes the next wave of
// that many consecutive tasks in canonical order (scenario-major,
// seed-fastest), brings up one core::SessionInstance per task and steps
// the live instances round-robin until all have retired; each live vafs
// session holds one open decision stream. Every decision round trip is
// timed client-side (RTT through the wire protocol) and, when the server
// runs in-process, server-side (DecisionCore::decide alone), both on
// lock-free log-linear histograms.
//
// The headline proof rides along: the same grid is re-run through
// fleet::run_fleet with in-process decisions and the two digest chains
// must match bit-for-bit — a daemon answering thousands of interleaved
// streams is indistinguishable, event stream for event stream, from the
// inline planner. The bench exits 1 on a mismatch, so every CI run of it
// is a determinism check at scale.
//
//   bench_s1_serving --quick             # smoke: short sessions, 1 wave
//   bench_s1_serving --serve /run/vafsd.sock   # drive an external daemon
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session_instance.h"
#include "exp/grid.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/table.h"
#include "fleet/fleet_runner.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace {

using namespace vafs;

/// Decorates a backend's streams with client-side round-trip timing: the
/// full cost a session pays per decision (encode + socket + decode + the
/// decision itself), recorded from the worker thread that waited for it.
class TimingStream final : public core::DecisionStream {
 public:
  TimingStream(std::unique_ptr<core::DecisionStream> inner, serve::LatencyHistogram* hist)
      : inner_(std::move(inner)), hist_(hist) {}

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    const auto t0 = std::chrono::steady_clock::now();
    core::DecisionResponse resp = inner_->decide(request);
    hist_->record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count()));
    return resp;
  }

 private:
  std::unique_ptr<core::DecisionStream> inner_;
  serve::LatencyHistogram* hist_;
};

class TimingBackend final : public core::DecisionBackend {
 public:
  TimingBackend(core::DecisionBackend* inner, serve::LatencyHistogram* hist)
      : inner_(inner), hist_(hist) {}

  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override {
    return std::make_unique<TimingStream>(inner_->open(info), hist_);
  }

 private:
  core::DecisionBackend* inner_;
  serve::LatencyHistogram* hist_;
};

/// One task's served outcome: its trace digest, or the error that ended it.
struct ServedTask {
  std::uint64_t digest = 0;
  std::string error;
};

/// A session of a wave. Pinned: the instance borrows config and tracer.
struct LiveSession {
  core::SessionConfig config;
  obs::Tracer tracer{obs::Tracer::Config{0}};
  std::unique_ptr<core::SessionInstance> instance;
};

/// Runs tasks [lo, hi) of the canonical order as one wave on the calling
/// thread: every session is brought up first, then the live ones step
/// round-robin, one event each per turn, until all have retired. Sessions
/// share nothing, so the interleaving cannot change any result.
void run_wave(const std::vector<exp::ScenarioSpec>& scenarios,
              const std::vector<std::uint64_t>& seeds, std::size_t lo, std::size_t hi,
              core::DecisionBackend* backend, std::vector<ServedTask>& out) {
  const std::size_t nseeds = seeds.size();
  std::deque<LiveSession> wave;
  std::vector<std::size_t> live;  // wave indices still stepping
  const auto fail = [&](std::size_t i, const char* what) {
    const std::size_t t = lo + i;
    out[t].error = "scenario '" + scenarios[t / nseeds].id + "' seed " +
                   std::to_string(seeds[t % nseeds]) + ": " + what;
    wave[i].instance.reset();
  };
  for (std::size_t t = lo; t < hi; ++t) {
    LiveSession& session = wave.emplace_back();
    session.config = scenarios[t / nseeds].config;
    session.config.seed = seeds[t % nseeds];
    core::SessionHooks hooks;
    hooks.tracer = &session.tracer;
    hooks.decision_backend = backend;
    try {
      session.instance = std::make_unique<core::SessionInstance>(session.config, hooks, nullptr);
      live.push_back(t - lo);
    } catch (const std::exception& e) {
      fail(t - lo, e.what());
    }
  }
  while (!live.empty()) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::size_t i = live[k];
      core::SessionInstance& instance = *wave[i].instance;
      try {
        if (instance.step_one()) {
          live[kept++] = i;
          continue;
        }
        out[lo + i].digest = instance.finish().trace_digest;
        wave[i].instance.reset();  // closes its decision stream
      } catch (const std::exception& e) {
        fail(i, e.what());
      }
    }
    live.resize(kept);
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string serving_usage() {
  return "serving flags:\n"
         "  --serve MODE       'auto' (default): host the decision server in-process\n"
         "                     on a private socket; otherwise the socket path of a\n"
         "                     running vafsd (server-side latency is then reported\n"
         "                     by the daemon, not here)\n"
         "  --seed-count N     sessions per scenario (default: the concurrent stream\n"
         "                     count, i.e. two full-concurrency waves across the 2\n"
         "                     scenarios)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchOptions options;
  std::string error;
  if (!exp::parse_bench_args(argc, argv, &options, &error)) {
    std::fprintf(stderr, "bench_s1_serving: %s\n%s%s", error.c_str(),
                 exp::bench_usage("s1_serving").c_str(), serving_usage().c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s%s", exp::bench_usage("s1_serving").c_str(), serving_usage().c_str());
    return 0;
  }

  const int jobs = options.effective_jobs();
  // Each client thread keeps this many sessions live, so the daemon sees
  // >= 1024 concurrent streams regardless of core count (a single thread
  // still multiplexes 1024 live sessions over one connection).
  const std::size_t per_worker = (1024 + static_cast<std::size_t>(jobs) - 1) /
                                 static_cast<std::size_t>(jobs);
  const std::uint64_t streams = static_cast<std::uint64_t>(jobs) * per_worker;

  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = sim::SimTime::seconds(options.quick ? 10 : 30);
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;

  // Every scenario runs the vafs governor — the only one that consults the
  // decision stream — under the two canonical network profiles.
  exp::ExperimentGrid grid(base);
  grid.governors({"vafs"})
      .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                    {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}});
  const std::vector<exp::ScenarioSpec> scenarios = grid.scenarios();

  // Default load: scenarios x streams seeds = two full-concurrency waves;
  // --quick halves that to one wave.
  if (options.seed_count == 0) {
    options.seed_count = options.quick ? (streams + 1) / 2 : streams;
  }
  const std::vector<std::uint64_t> seeds = options.fleet_seeds();
  const std::size_t tasks = scenarios.size() * seeds.size();
  const bool tracing = options.trace;  // default on: the digest chain IS the proof

  // ---- The daemon under test.
  std::unique_ptr<serve::Server> server;
  std::string socket = options.serve.empty() ? "auto" : options.serve;
  if (socket == "auto") {
    socket = "/tmp/vafs-s1-" + std::to_string(getpid()) + ".sock";
    serve::ServerOptions sopts;
    sopts.socket_path = socket;
    sopts.max_connections = static_cast<std::size_t>(jobs) + 8;
    server = std::make_unique<serve::Server>(sopts);
    if (!server->start()) {
      std::fprintf(stderr, "bench_s1_serving: cannot start server on %s\n", socket.c_str());
      return 1;
    }
  }
  serve::SocketBackend socket_backend(socket);
  try {
    serve::ServeConnection probe(socket);
    if (!probe.ping()) {
      std::fprintf(stderr, "bench_s1_serving: daemon at %s did not answer a ping\n",
                   socket.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_s1_serving: %s\n", e.what());
    return 1;
  }

  serve::LatencyHistogram rtt;
  TimingBackend timing(&socket_backend, &rtt);

  std::printf("s1: %zu scenarios x %zu seeds = %zu sessions, %d client threads x %zu live "
              "sessions = %llu concurrent streams, daemon %s\n",
              scenarios.size(), seeds.size(), tasks, jobs, per_worker,
              static_cast<unsigned long long>(streams), server ? "in-process" : socket.c_str());

  // ---- Serving leg: each client thread takes the next wave of per_worker
  // consecutive tasks until none remain.
  std::vector<ServedTask> served(tasks);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::atomic<std::size_t> next{0};
    const auto client = [&] {
      for (;;) {
        const std::size_t lo = next.fetch_add(per_worker, std::memory_order_relaxed);
        if (lo >= tasks) return;
        run_wave(scenarios, seeds, lo, std::min(tasks, lo + per_worker), &timing, served);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) pool.emplace_back(client);
    for (auto& th : pool) th.join();
  }
  const double serve_s = seconds_since(t0);
  std::uint64_t served_chain = 0;
  std::size_t served_failures = 0;
  for (const ServedTask& task : served) {
    if (!task.error.empty() && served_failures++ == 0) {
      std::fprintf(stderr, "bench_s1_serving: first failure under the daemon: %s\n",
                   task.error.c_str());
    }
    served_chain = obs::chain_digest(served_chain, task.digest);
  }
  if (served_failures > 0) {
    std::fprintf(stderr, "bench_s1_serving: %zu sessions failed under the daemon\n",
                 served_failures);
    return 1;
  }

  serve::ServerStats sstats;
  if (server != nullptr) {
    server->stop();  // drain so the counters below are final
    sstats = server->stats();
  }

  // ---- In-process reference leg: same grid, inline decisions, through the
  // fleet runner.
  fleet::FleetOptions fopts;
  fopts.jobs = jobs;
  fopts.seeds = seeds;
  fopts.trace = tracing;
  const auto t1 = std::chrono::steady_clock::now();
  const fleet::FleetResult inproc = run_fleet(scenarios, fopts);
  const double inproc_s = seconds_since(t1);
  if (!inproc.ok()) {
    std::fprintf(stderr, "bench_s1_serving: reference leg: %s\n", inproc.error.c_str());
    return 1;
  }

  const std::uint64_t decisions = rtt.count();
  const double decisions_per_sec =
      serve_s > 0 ? static_cast<double>(decisions) / serve_s : 0.0;
  const double sessions_per_sec = serve_s > 0 ? static_cast<double>(tasks) / serve_s : 0.0;

  std::printf("%-26s %12s %12s\n", "", "daemon", "in-process");
  exp::print_rule(54);
  std::printf("%-26s %12.2f %12.2f\n", "wall seconds", serve_s, inproc_s);
  std::printf("%-26s %12.0f %12.0f\n", "sessions/sec", sessions_per_sec,
              inproc_s > 0 ? static_cast<double>(inproc.sessions_run) / inproc_s : 0.0);
  std::printf("%-26s %12s %12s\n", "digest chain",
              obs::digest_hex(served_chain).c_str(),
              obs::digest_hex(inproc.digest_chain).c_str());
  std::printf("serve: %llu decisions (%.0f/s), RTT p50/p95/p99 %.0f/%.0f/%.0f us "
              "(mean %.1f)\n",
              static_cast<unsigned long long>(decisions), decisions_per_sec,
              rtt.percentile_us(0.50), rtt.percentile_us(0.95), rtt.percentile_us(0.99),
              rtt.mean_us());
  if (server != nullptr) {
    std::printf("serve: server-side decide p50/p95/p99 %.0f/%.0f/%.0f us over %llu "
                "connections (%llu streams)\n",
                sstats.latency_p50_us, sstats.latency_p95_us, sstats.latency_p99_us,
                static_cast<unsigned long long>(sstats.connections_accepted),
                static_cast<unsigned long long>(sstats.streams_opened));
  }

  bool digests_match = true;
  if (tracing) {
    digests_match = served_chain == inproc.digest_chain;
    std::printf("differential: digest chains %s\n",
                digests_match ? "identical (daemon == in-process, bitwise)" : "DIFFER");
  }

  if (options.out_json != "none") {
    const std::string path =
        options.out_json.empty() ? "BENCH_s1_serving.json" : options.out_json;
    exp::Json root = exp::Json::object();
    root.set("bench", "s1_serving");
    root.set("sessions", static_cast<std::uint64_t>(tasks));
    root.set("jobs", jobs);
    root.set("daemon", server ? "in-process" : socket);
    root.set("digest_chain_served", obs::digest_hex(served_chain));
    root.set("digest_chain_inproc", obs::digest_hex(inproc.digest_chain));
    root.set("digests_match", digests_match);
    exp::Json extra = exp::Json::object();
    extra.set("concurrent_streams", streams);
    extra.set("decisions", decisions);
    extra.set("decisions_per_sec", decisions_per_sec);
    extra.set("sessions_per_sec", sessions_per_sec);
    extra.set("decision_rtt_p50_us", rtt.percentile_us(0.50));
    extra.set("decision_rtt_p95_us", rtt.percentile_us(0.95));
    extra.set("decision_rtt_p99_us", rtt.percentile_us(0.99));
    extra.set("decision_rtt_mean_us", rtt.mean_us());
    if (server != nullptr) {
      extra.set("server_decide_p50_us", sstats.latency_p50_us);
      extra.set("server_decide_p99_us", sstats.latency_p99_us);
      extra.set("server_requests", sstats.requests);
    }
    root.set("extra", std::move(extra));
    std::ofstream out(path, std::ios::trunc);
    out << root.dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_s1_serving: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("s1: wrote %s\n", path.c_str());
  }

  if (tracing && !digests_match) {
    std::fprintf(stderr, "bench_s1_serving: FAILED: daemon-served digest chain differs from "
                 "in-process\n");
    return 1;
  }
  return 0;
}
