// fleet_mix: fleet::run_fleet with three workers plus the folding thread over
// bench_fleet's 16-scenario grid (performance / ondemand / schedutil / vafs
// x fair / poor x clean / mild faults), 20 s sessions on the global device
// mix, with checkpoints and a JSONL spool in a scratch directory. With 128
// seeds per scenario in seed-fastest order a content key comes back only
// after the 64-entry content cache has evicted it, so content synthesis,
// bring-up, fault retries, the fold and durable I/O all run per session.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "fleet/fleet_runner.h"
#include "fleet/io.h"
#include "obs/export.h"
#include "sessions.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fleet = vafs::fleet;

// Digest chain of one run_fleet pass at the default seed.
constexpr std::uint64_t kPinnedChain = 0xe42668ad30072e90ULL;

constexpr std::size_t kSeeds = 128;
constexpr int kWorkers = 3;

struct Inputs {
  std::vector<exp::ScenarioSpec> scenarios;
  std::vector<std::uint64_t> seeds;
};

Inputs make_inputs(std::uint64_t workload_seed) {
  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = vafs::sim::SimTime::seconds(20);
  base.downloader.attempt_timeout = vafs::sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  exp::ExperimentGrid grid(base);
  grid.governors({"performance", "ondemand", "schedutil", "vafs"})
      .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                    {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}})
      .axis("fault", {{"clean", [](core::SessionConfig&) {}},
                      {"mild", [](core::SessionConfig& c) {
                         c.fault = vafs::fault::FaultPlanConfig::mild();
                       }}})
      .population(vafs::device::PopulationMix::named("global"));
  Inputs in;
  in.scenarios = grid.scenarios();
  for (std::size_t i = 0; i < kSeeds; ++i) in.seeds.push_back(derive_seed(workload_seed, 2, i));
  return in;
}

fleet::FleetOptions fleet_options(const Inputs& in, const std::string& dir, int jobs,
                                  vafs::core::DecisionBackend* backend) {
  fleet::FleetOptions opts;
  opts.jobs = jobs;
  opts.seeds = in.seeds;
  opts.shard_size = 32;
  opts.checkpoint_dir = dir + "/ckpt";
  opts.checkpoint_every_shards = 16;
  opts.spool.format = fleet::SpoolFormat::kJsonl;
  opts.spool.path = dir + "/spool.jsonl";
  opts.trace = true;
  opts.decision_backend = backend;
  return opts;
}

/// One run_fleet pass from an empty scratch directory; checks that every
/// session ran, none failed and each finished. `wall_s`, when given,
/// receives the host time of the run_fleet call alone.
fleet::FleetResult run_pass(const Inputs& in, const fleet::FleetOptions& opts, Report& report,
                            double* wall_s = nullptr) {
  std::error_code ec;
  std::filesystem::remove_all(opts.checkpoint_dir, ec);
  std::filesystem::remove(opts.spool.path, ec);
  const auto t0 = Clock::now();
  fleet::FleetResult result = fleet::run_fleet(in.scenarios, opts);
  if (wall_s != nullptr) *wall_s = seconds_since(t0);
  report.check(result.ok(), "run_fleet: " + result.error);
  report.check(result.complete(), "run_fleet did not fold every shard");
  report.fail_ops(result.failures.size());
  for (const auto& f : result.failures) std::fprintf(stderr, "perfbench: %s\n", f.message.c_str());
  report.check(result.sessions_run == in.scenarios.size() * opts.seeds.size(),
               "run_fleet ran " + std::to_string(result.sessions_run) + " sessions");
  for (const auto& fs : result.scenarios) {
    report.check(fs.agg.all_finished, fs.spec.id + ": a session did not finish");
  }
  return result;
}

// fleet::IoHooks used as counters: every durable write and fsync of the
// checkpoint and spool paths passes through them.
std::atomic<std::uint64_t> g_io_bytes{0};
std::atomic<std::uint64_t> g_io_writes{0};
std::atomic<std::uint64_t> g_io_fsyncs{0};

}  // namespace

void run_fleet_mix(const Args& args, Report& report, SpanLog& spans) {
  const std::string dir = args.scratch_dir + "/fleet";
  TimedBackend decisions;
  Inputs in;
  fleet::FleetOptions opts;
  // The calibration kernel tracks one thread's speed; with three workers
  // the pool absorbs part of a slowdown, and scaling measured by it
  // overcorrects, so this workload reports unscaled figures.
  Units units(0.0);
  for (int k = 0; k < kSetupRuns; ++k) {
    // Set-up: the inputs plus a warm-up pass over a quarter of the seeds,
    // repeated; the first repetition starts at process start.
    const auto t0 = k == 0 ? args.process_start : Clock::now();
    in = make_inputs(args.seed);
    std::filesystem::create_directories(dir);
    opts = fleet_options(in, dir, kWorkers, &decisions);
    fleet::FleetOptions warm = opts;
    warm.seeds.resize(kSeeds / 4);
    run_pass(in, warm, report);
    const double setup = seconds_since(t0);
    units.add_setup(setup, 0.0);
  }
  const double rss_mib = peak_rss_mib();
  decisions.take_samples();  // warm-up decisions are not measured
  const std::size_t sessions = in.scenarios.size() * in.seeds.size();

  // Measured passes (one timed unit each) until the time is up; the traced
  // run makes one pass here.
  std::size_t passes = 0;
  std::uint64_t chain = 0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.trace ? 0.0 : args.seconds);
  do {
    const double cpu0 = process_cpu_s();
    double wall = 0.0;
    const fleet::FleetResult result = run_pass(in, opts, report, &wall);
    units.add_work(wall, process_cpu_s() - cpu0, static_cast<double>(sessions));
    Samples decide = decisions.take_samples();
    units.add_latencies(decide);
    report.attempt(sessions);
    if (passes++ == 0) {
      chain = result.digest_chain;
      std::printf("fleet_mix: %zu scenarios x %zu seeds = %zu sessions per pass on %d workers, "
                  "digest chain %s\n",
                  in.scenarios.size(), in.seeds.size(), sessions, kWorkers,
                  vafs::obs::digest_hex(chain).c_str());
      if (args.seed == kDefaultSeed) {
        report.check(chain == kPinnedChain, "fleet_mix digest chain " +
                                                vafs::obs::digest_hex(chain) +
                                                " differs from the pinned " +
                                                vafs::obs::digest_hex(kPinnedChain));
      }
    }
    report.check(result.digest_chain == chain, "fleet_mix digest chain changed between passes");
  } while (Clock::now() < t_end);

  if (!args.trace) {
    units.report(report, rss_mib);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return;
  }

  // Traced run. 1. Three rounds of: an untraced pass, the same pass with
  // on_progress spans and the I/O hooks counting, and a one-worker pass.
  // Alternating them lets host-speed drift hit all three alike; the traced
  // passes' extra time is the tracing overhead, the one-worker passes give
  // the parallel efficiency.
  constexpr int kRounds = 3;
  FleetLayers layers;
  fleet::FleetOptions traced = opts;
  std::int64_t last_fold = 0;
  std::int32_t run_span = SpanLog::kNoParent;
  traced.on_progress = [&](std::uint64_t, std::uint64_t) {
    const std::int64_t now = now_ns();
    layers.fold_gap.add(now - last_fold);
    spans.add("fleet.fold_interval", last_fold, now, run_span, 0);
    last_fold = now;
    return true;
  };
  const fleet::FleetOptions one = fleet_options(in, dir, 1, &decisions);
  std::vector<double> untraced_walls, traced_walls, one_walls;
  for (int k = 0; k < kRounds; ++k) {
    double wall = 0.0;
    report.check(run_pass(in, opts, report, &wall).digest_chain == chain, "fleet chain differs");
    untraced_walls.push_back(wall);

    fleet::IoHooks::write_gate = [](std::size_t n) {
      g_io_bytes.fetch_add(n, std::memory_order_relaxed);
      g_io_writes.fetch_add(1, std::memory_order_relaxed);
      return n;
    };
    fleet::IoHooks::fsync_gate = [] {
      g_io_fsyncs.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
    run_span = spans.begin("fleet.run_fleet", SpanLog::kNoParent, 0);
    last_fold = now_ns();
    report.check(run_pass(in, traced, report, &wall).digest_chain == chain,
                 "traced fleet chain differs");
    spans.end(run_span);
    fleet::IoHooks::reset();
    traced_walls.push_back(wall);

    report.check(run_pass(in, one, report, &wall).digest_chain == chain,
                 "one-worker fleet chain differs");
    one_walls.push_back(wall);
  }
  layers.io_bytes_per_session =
      static_cast<double>(g_io_bytes.load()) / static_cast<double>(kRounds * sessions);
  layers.io_writes = static_cast<double>(g_io_writes.load()) / kRounds;
  layers.io_fsyncs = static_cast<double>(g_io_fsyncs.load()) / kRounds;
  layers.parallel_efficiency = median(one_walls) / (kWorkers * median(untraced_walls));
  decisions.take_samples();

  // 2. The sessions through the benchmark's own loop.
  const std::vector<Cell> cells = grid_cells(in.scenarios, in.seeds);
  TracedPass pass = trace_cells(cells, spans, report);
  std::vector<std::uint64_t> digests;
  for (const CellTrace& c : pass.cells) digests.push_back(c.digest);
  report.check(chain_of(digests) == chain, "traced fleet_mix sessions ran a different chain");
  const KindCounts counts = count_kinds(cells, report);
  report.check(count_kinds(cells, report) == counts, "event-kind counts did not repeat exactly");
  report.check(counts.digests == digests, "full-ring sessions ran different digests");

  report_session_layers(report, pass, counts, /*coverage_required=*/true);
  report.metric("trace.overhead_share", median(traced_walls) / median(untraced_walls) - 1.0,
                "ratio");
  report_fleet_layers(report, layers);
  ServeLayers no_serve;
  report_serve_layers(report, no_serve);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void report_fleet_layers(Report& report, FleetLayers& layers) {
  report.metric("fleet.parallel_efficiency", layers.parallel_efficiency, "ratio");
  report_latency(report, "fleet.fold_gap_ms", layers.fold_gap, 1e-6, "ms", LatencyKind::kLayer);
  report.metric("fleet.io_bytes_per_session", layers.io_bytes_per_session, "B");
  report.metric("fleet.io_writes", layers.io_writes, "count");
  report.metric("fleet.io_fsyncs", layers.io_fsyncs, "count");
}

}  // namespace perfbench
