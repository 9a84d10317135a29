// Fleet-scale smoke bench: a governor × network × fault grid scaled to an
// arbitrary session count by --seed-count, executed through the sharded
// fleet runner (src/fleet) instead of exp::run_grid.
//
// This is the binary the nightly million-session job drives:
//
//   bench_fleet --quick --seed-count 62500 --jobs 8
//       --checkpoint-dir ckpt --spool none --rss-limit-mb 256
//
// is 16 scenarios × 62500 seeds = 1,000,000 sessions at bounded memory.
// SIGTERM/SIGINT stop the run at the next shard boundary, write a final
// checkpoint and exit 75 (EX_TEMPFAIL); re-running with --resume picks up
// at the frontier and finishes with aggregates and a digest chain that are
// bit-identical to an uninterrupted run.
#include <sys/resource.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/grid.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/table.h"
#include "fault/plan.h"
#include "fleet/fleet_runner.h"
#include "obs/export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "supervise/supervisor.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Peak RSS of this process in MiB (Linux ru_maxrss is KiB).
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchOptions options;
  std::string error;
  if (!exp::parse_bench_args(argc, argv, &options, &error)) {
    std::fprintf(stderr, "bench_fleet: %s\n%s%s", error.c_str(),
                 exp::bench_usage("fleet").c_str(), exp::fleet_usage().c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s%s", exp::bench_usage("fleet").c_str(), exp::fleet_usage().c_str());
    return 0;
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // The grid: 4 governors × 2 networks × {clean, mild faults} = 16
  // scenarios. Sessions are short — fleet scale comes from the seed axis,
  // and the point is the shard/checkpoint machinery, not session length.
  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = sim::SimTime::seconds(options.quick ? 20 : 120);
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;

  exp::ExperimentGrid grid(base);
  grid.governors({"performance", "ondemand", "schedutil", "vafs"})
      .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                    {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}})
      .axis("fault",
            {{"clean", [](core::SessionConfig&) {}},
             {"mild", [](core::SessionConfig& c) { c.fault = fault::FaultPlanConfig::mild(); }}});
  // Device-population sweeps: every session draws its device from the mix
  // by a pure hash of its seed, so the draw is identical across shard
  // sizes, job counts and resumes. The mix id joins the scenario labels
  // (and thereby the checkpoint fingerprint): a checkpoint from one mix
  // cannot silently resume a run of another.
  if (options.mix != "none") {
    try {
      grid.population(device::PopulationMix::named(options.mix));
    } catch (const std::out_of_range& e) {
      std::fprintf(stderr, "bench_fleet: %s\n", e.what());
      return 2;
    }
  }

  const std::vector<exp::ScenarioSpec> scenarios = grid.scenarios();

  fleet::FleetOptions fopts;
  fopts.jobs = options.effective_jobs();
  fopts.seeds = options.fleet_seeds();
  const std::uint64_t tasks =
      static_cast<std::uint64_t>(scenarios.size()) * fopts.seeds.size();
  if (options.shards > 0) {
    fopts.shard_size = static_cast<std::size_t>((tasks + options.shards - 1) / options.shards);
  }
  fopts.checkpoint_dir = options.checkpoint_dir;
  fopts.resume = options.resume;
  fopts.trace = options.trace;  // default on: the digest chain IS the result
  fopts.task_timeout_ms = options.task_timeout_ms;
  if (options.spool == "csv") fopts.spool.format = fleet::SpoolFormat::kCsv;
  if (options.spool == "jsonl") fopts.spool.format = fleet::SpoolFormat::kJsonl;
  fopts.on_progress = [](std::uint64_t, std::uint64_t) {
    return !g_stop.load(std::memory_order_relaxed);
  };

  const bool supervised = options.supervise > 0;
  if (options.chaos_stall > 0 && options.task_deadline_ms == 0) {
    std::fprintf(stderr, "bench_fleet: --chaos-stall needs --task-deadline-ms: a stalled "
                 "worker keeps heartbeating, so only the task deadline can reap it\n");
    return 2;
  }
  if (!supervised && (options.chaos_enabled() || options.task_deadline_ms > 0 ||
                      options.worker_as_limit_mb > 0 || options.worker_rss_limit_mb > 0)) {
    std::fprintf(stderr, "bench_fleet: chaos/deadline/worker-budget flags need --supervise N\n");
    return 2;
  }
  if (!options.serve.empty() && supervised) {
    std::fprintf(stderr, "bench_fleet: --serve and --supervise are mutually exclusive "
                 "(supervised workers are subprocesses; run vafsd and point each worker's "
                 "parent at it instead)\n");
    return 2;
  }

  // Serving mode: route every session's VAFS decisions through the daemon
  // protocol. "auto" hosts the server in-process on a private socket; any
  // other value is the socket of an already-running vafsd. Either way the
  // digest chain must match an in-process run bit-for-bit.
  std::unique_ptr<serve::Server> serve_server;
  std::unique_ptr<serve::SocketBackend> serve_backend;
  if (!options.serve.empty()) {
    std::string socket = options.serve;
    if (socket == "auto") {
      socket = "/tmp/vafs-fleet-" + std::to_string(getpid()) + ".sock";
      serve::ServerOptions sopts;
      sopts.socket_path = socket;
      serve_server = std::make_unique<serve::Server>(sopts);
      if (!serve_server->start()) {
        std::fprintf(stderr, "bench_fleet: cannot start decision server on %s\n",
                     socket.c_str());
        return 1;
      }
    }
    try {
      serve::ServeConnection probe(socket);
      if (!probe.ping()) {
        std::fprintf(stderr, "bench_fleet: daemon at %s did not answer a ping\n",
                     socket.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_fleet: --serve: %s\n", e.what());
      return 1;
    }
    serve_backend = std::make_unique<serve::SocketBackend>(socket);
    fopts.decision_backend = serve_backend.get();
  }

  std::printf("fleet: %zu scenarios x %zu seeds = %llu sessions, shard size %zu, %d %s\n",
              scenarios.size(), fopts.seeds.size(), static_cast<unsigned long long>(tasks),
              fopts.shard_size, supervised ? options.supervise : fopts.jobs,
              supervised ? "supervised workers" : "jobs");

  supervise::SupervisedResult sup;
  const auto t0 = std::chrono::steady_clock::now();
  if (supervised) {
    supervise::SuperviseOptions sopts;
    sopts.workers = options.supervise;
    sopts.task_deadline_ms = options.task_deadline_ms;
    sopts.heartbeat_interval_ms = options.heartbeat_ms;
    sopts.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
    sopts.max_task_attempts = options.task_retries;
    sopts.worker_as_limit_mb = options.worker_as_limit_mb;
    sopts.worker_rss_limit_mb = options.worker_rss_limit_mb;
    sopts.chaos.seed = options.chaos_seed;
    sopts.chaos.crash = options.chaos_crash;
    sopts.chaos.abort_rate = options.chaos_abort;
    sopts.chaos.exit_rate = options.chaos_exit;
    sopts.chaos.hang_silent = options.chaos_hang;
    sopts.chaos.stall = options.chaos_stall;
    sopts.chaos.leak = options.chaos_leak;
    sup = run_supervised(scenarios, fopts, sopts);
  } else {
    sup.fleet = run_fleet(scenarios, fopts);
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const fleet::FleetResult& result = sup.fleet;
  const double rss_mib = peak_rss_mib();

  if (!result.ok()) {
    std::fprintf(stderr, "bench_fleet: %s\n", result.error.c_str());
    return 1;
  }

  if (result.complete()) {
    std::printf("%-34s %10s %10s %10s %8s\n", "scenario", "total_J", "rebuf_s", "kbps", "runs");
    exp::print_rule(78);
    for (const auto& fs : result.scenarios) {
      const auto& a = fs.agg;
      std::printf("%-34s %10.1f %10.2f %10.0f %8d\n", fs.spec.id.c_str(),
                  a.total_mj.mean() / 1000.0, a.rebuffer_s.mean(), a.mean_bitrate_kbps.mean(),
                  a.runs);
    }
  }

  std::printf("fleet: %llu/%llu shards folded (%llu sessions run, %llu resumed, %zu failed), "
              "digest chain %s, peak RSS %.1f MiB, %.2f s (%.0f sessions/s)\n",
              static_cast<unsigned long long>(result.shards_done),
              static_cast<unsigned long long>(result.shard_count),
              static_cast<unsigned long long>(result.sessions_run),
              static_cast<unsigned long long>(result.sessions_resumed), result.failures.size(),
              obs::digest_hex(result.digest_chain).c_str(), rss_mib, elapsed_s,
              elapsed_s > 0 ? static_cast<double>(result.sessions_run) / elapsed_s : 0.0);

  serve::ServerStats serve_stats;
  if (serve_server != nullptr) {
    serve_server->stop();  // drain before reading the final counters
    serve_stats = serve_server->stats();
    std::printf("serve: %llu decisions on %llu streams over %llu connections, "
                "latency p50/p95/p99 %.0f/%.0f/%.0f us\n",
                static_cast<unsigned long long>(serve_stats.requests),
                static_cast<unsigned long long>(serve_stats.streams_opened),
                static_cast<unsigned long long>(serve_stats.connections_accepted),
                serve_stats.latency_p50_us, serve_stats.latency_p95_us,
                serve_stats.latency_p99_us);
  } else if (serve_backend != nullptr) {
    std::printf("serve: decisions answered by vafsd at %s over %llu client connections\n",
                serve_backend->socket_path().c_str(),
                static_cast<unsigned long long>(serve_backend->connections_opened()));
  }

  if (supervised) {
    std::printf("supervise: %llu spawns, %llu deaths (%llu heartbeat, %llu deadline, %llu rss "
                "kills), %llu retries, %zu quarantined (%llu resumed)\n",
                static_cast<unsigned long long>(sup.worker_spawns),
                static_cast<unsigned long long>(sup.worker_deaths),
                static_cast<unsigned long long>(sup.heartbeat_kills),
                static_cast<unsigned long long>(sup.deadline_kills),
                static_cast<unsigned long long>(sup.rss_kills),
                static_cast<unsigned long long>(sup.task_retries), sup.quarantine.size(),
                static_cast<unsigned long long>(sup.quarantined_resumed));
    for (const auto& q : sup.quarantine) {
      std::string fates;
      for (std::size_t i = 0; i < q.fates.size(); ++i) {
        if (i > 0) fates += ',';
        fates += q.fates[i];
      }
      std::fprintf(stderr, "quarantined: task %llu scenario %s seed %llu after %d attempts "
                   "[%s]\n",
                   static_cast<unsigned long long>(q.task_index), q.scenario.c_str(),
                   static_cast<unsigned long long>(q.seed), q.attempts, fates.c_str());
    }
  }

  // Artifact (skipped when stopped mid-run: partial aggregates are the
  // checkpoint's job, not the artifact's).
  if (result.complete() && options.out_json != "none") {
    const std::string path = options.out_json.empty() ? "BENCH_fleet.json" : options.out_json;
    exp::Json root = exp::Json::object();
    root.set("bench", "fleet");
    root.set("sessions", static_cast<std::uint64_t>(tasks));
    root.set("shard_size", static_cast<std::uint64_t>(fopts.shard_size));
    root.set("shards", result.shard_count);
    root.set("jobs", fopts.jobs);
    root.set("digest_chain", obs::digest_hex(result.digest_chain));
    root.set("fingerprint", obs::digest_hex(result.fingerprint));
    root.set("failures", static_cast<std::uint64_t>(result.failures.size()));
    root.set("peak_rss_mib", rss_mib);
    root.set("elapsed_s", elapsed_s);
    root.set("sessions_per_sec",
             elapsed_s > 0 ? static_cast<double>(result.sessions_run) / elapsed_s : 0.0);
    root.set("supervised", supervised ? static_cast<std::uint64_t>(options.supervise)
                                      : static_cast<std::uint64_t>(0));
    if (serve_backend != nullptr) {
      exp::Json sv = exp::Json::object();
      sv.set("mode", options.serve);
      sv.set("client_connections", serve_backend->connections_opened());
      if (serve_server != nullptr) {
        sv.set("requests", serve_stats.requests);
        sv.set("streams", serve_stats.streams_opened);
        sv.set("latency_p50_us", serve_stats.latency_p50_us);
        sv.set("latency_p95_us", serve_stats.latency_p95_us);
        sv.set("latency_p99_us", serve_stats.latency_p99_us);
      }
      root.set("serve", std::move(sv));
    }
    if (supervised) {
      exp::Json sv = exp::Json::object();
      sv.set("worker_spawns", sup.worker_spawns);
      sv.set("worker_deaths", sup.worker_deaths);
      sv.set("heartbeat_kills", sup.heartbeat_kills);
      sv.set("deadline_kills", sup.deadline_kills);
      sv.set("rss_kills", sup.rss_kills);
      sv.set("task_retries", sup.task_retries);
      sv.set("quarantined", static_cast<std::uint64_t>(sup.quarantine.size()));
      sv.set("quarantined_resumed", sup.quarantined_resumed);
      root.set("supervise", std::move(sv));
    }
    exp::Json scen = exp::Json::object();
    for (const auto& fs : result.scenarios) {
      exp::Json cell = exp::Json::object();
      cell.set("runs", fs.agg.runs);
      cell.set("total_mj_mean", fs.agg.total_mj.mean());
      cell.set("rebuffer_s_mean", fs.agg.rebuffer_s.mean());
      cell.set("mean_bitrate_kbps_mean", fs.agg.mean_bitrate_kbps.mean());
      scen.set(fs.spec.id, std::move(cell));
    }
    root.set("scenarios", std::move(scen));
    std::ofstream out(path, std::ios::trunc);
    out << root.dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_fleet: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("fleet: wrote %s\n", path.c_str());
  }

  if (options.rss_limit_mb > 0 && rss_mib > static_cast<double>(options.rss_limit_mb)) {
    std::fprintf(stderr, "bench_fleet: peak RSS %.1f MiB exceeds the %llu MiB budget\n", rss_mib,
                 static_cast<unsigned long long>(options.rss_limit_mb));
    return 1;
  }

  if (result.stopped) {
    std::fprintf(stderr, "bench_fleet: stopped by signal after %llu/%llu shards; "
                 "checkpoint written, rerun with --resume\n",
                 static_cast<unsigned long long>(result.shards_done),
                 static_cast<unsigned long long>(result.shard_count));
    return 75;  // EX_TEMPFAIL: incomplete but resumable
  }
  return 0;
}
