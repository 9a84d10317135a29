// t1_grid: the paper's T1 grid as a closed batch through exp::run_grid at
// one job with the digest tracer on. Sixteen seeds stay under the arena's
// 64-entry content cache, so every governor replays cached content and the
// time goes to the event loop (governor ticks, CPU completions, vsync).
#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "obs/export.h"
#include "sessions.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Digest chain of one run_grid pass at the default seed (canonical order).
constexpr std::uint64_t kPinnedChain = 0xbea626c9d22c0e16ULL;

constexpr std::size_t kSeeds = 16;
// A timed unit is one run_grid call over every scenario and two seeds: the
// same synthesis-then-replay mix as a whole pass, in about a tenth of a
// second, so a run holds enough units for stable quartiles.
constexpr std::size_t kSeedsPerUnit = 2;
// calibration_s() on an undisturbed host of the kind the figures are
// scaled to (a 4-vCPU Xeon VM).
constexpr double kCalibrationRefS = 0.012;

const std::vector<std::string> kT1Governors = {"performance", "ondemand",  "interactive",
                                               "conservative", "schedutil", "powersave",
                                               "vafs",        "vafs-oracle"};
const std::vector<std::pair<std::size_t, std::string>> kRungs = {
    {0, "360p"}, {1, "480p"}, {2, "720p"}, {3, "1080p"}};

struct Inputs {
  std::vector<exp::ScenarioSpec> scenarios;
  std::vector<std::uint64_t> seeds;
};

Inputs make_inputs(std::uint64_t workload_seed) {
  core::SessionConfig base;  // legacy single-cluster device, fixed ABR
  base.media_duration = vafs::sim::SimTime::seconds(120);
  base.net = core::NetProfile::kFair;
  Inputs in;
  in.scenarios = exp::ExperimentGrid(base).governors(kT1Governors).reps(kRungs).scenarios();
  for (std::size_t i = 0; i < kSeeds; ++i) in.seeds.push_back(derive_seed(workload_seed, 1, i));
  return in;
}

/// One grid pass assembled from its units: per-session digests in the
/// canonical order and per-scenario CPU energy summed over seeds.
struct Pass {
  std::vector<std::uint64_t> digests;  // [scenario * seeds + seed]
  std::vector<double> cpu_mj;          // [scenario], summed over seeds
};

/// Folds one unit (every scenario, seeds from `first` on) into the pass;
/// every session must have run and finished.
void fold_unit(const exp::ResultSet& results, std::size_t first, Pass& pass, Report& report) {
  const auto& all = results.all();
  for (std::size_t s = 0; s < all.size(); ++s) {
    const auto& sr = all[s];
    report.fail_ops(sr.failures.size());
    for (const auto& f : sr.failures) std::fprintf(stderr, "perfbench: %s\n", f.message.c_str());
    report.check(sr.agg.all_finished, sr.spec.id + ": a session did not finish");
    for (std::size_t i = 0; i < sr.runs.size(); ++i) {
      pass.digests[s * kSeeds + first + i] = sr.runs[i].trace_digest;
      pass.cpu_mj[s] += sr.runs[i].energy.cpu_mj;
    }
  }
}

/// Checks a whole pass against the DESIGN §4 shapes; returns its chain.
std::uint64_t check_pass(const std::vector<exp::ScenarioSpec>& scenarios, const Pass& pass,
                         Report& report) {
  const auto cpu = [&](const std::string& governor, const std::string& rung) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      if (*scenarios[s].label("governor") == governor && *scenarios[s].label("rep") == rung) {
        return pass.cpu_mj[s];
      }
    }
    return 0.0;
  };
  for (const auto& [rep, rung] : kRungs) {
    for (const auto& governor : kT1Governors) {
      if (governor == "performance") continue;
      report.check(cpu("performance", rung) > cpu(governor, rung),
                   "T1 " + rung + ": performance must use the most CPU energy, not " + governor);
    }
    report.check(cpu("vafs", rung) < cpu("ondemand", rung), "T1 " + rung + ": vafs must beat ondemand");
    report.check(cpu("vafs-oracle", rung) <= cpu("vafs", rung),
                 "T1 " + rung + ": vafs-oracle must not exceed vafs");
  }
  return chain_of(pass.digests);
}

}  // namespace

void run_t1_grid(const Args& args, Report& report, SpanLog& spans) {
  TimedBackend decisions;
  exp::RunOptions opts;
  opts.jobs = 1;
  opts.trace = true;
  opts.decision_backend = &decisions;
  const auto unit_seeds = [&](const Inputs& in, std::size_t u) {
    return std::vector<std::uint64_t>(in.seeds.begin() + u * kSeedsPerUnit,
                                      in.seeds.begin() + (u + 1) * kSeedsPerUnit);
  };

  // Set-up: the inputs plus one warm-up unit, repeated; the first
  // repetition starts at process start.
  Inputs in;
  Units units(kCalibrationRefS);
  for (int k = 0; k < kSetupRuns; ++k) {
    const auto t0 = k == 0 ? args.process_start : Clock::now();
    in = make_inputs(args.seed);
    opts.seeds = unit_seeds(in, 0);
    Pass warm{std::vector<std::uint64_t>(in.scenarios.size() * kSeeds),
              std::vector<double>(in.scenarios.size())};
    fold_unit(exp::run_grid(in.scenarios, opts), 0, warm, report);
    const double setup = seconds_since(t0);
    units.add_setup(setup, calibration_s());
  }
  const double rss_mib = peak_rss_mib();
  decisions.take_samples();  // warm-up decisions are not measured
  const std::size_t sessions = in.scenarios.size() * in.seeds.size();
  const std::size_t units_per_pass = kSeeds / kSeedsPerUnit;
  const double unit_sessions = static_cast<double>(sessions / units_per_pass);

  // Whole passes, each as units of kSeedsPerUnit seeds over every scenario,
  // until the time is up; the traced run makes one pass in a single
  // run_grid call instead.
  std::uint64_t chain = 0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.trace ? 0.0 : args.seconds);
  for (std::size_t p = 0; p == 0 || Clock::now() < t_end; ++p) {
    Pass pass{std::vector<std::uint64_t>(sessions), std::vector<double>(in.scenarios.size())};
    if (args.trace) {
      opts.seeds = in.seeds;
      fold_unit(exp::run_grid(in.scenarios, opts), 0, pass, report);
    } else {
      for (std::size_t u = 0; u < units_per_pass; ++u) {
        opts.seeds = unit_seeds(in, u);
        units.add_calibration(calibration_s());
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        const exp::ResultSet results = exp::run_grid(in.scenarios, opts);
        units.add_work(seconds_since(t0), process_cpu_s() - cpu0, unit_sessions);
        Samples decide = decisions.take_samples();
        units.add_latencies(decide);
        fold_unit(results, u * kSeedsPerUnit, pass, report);
      }
    }
    report.attempt(sessions);
    const std::uint64_t pass_chain = check_pass(in.scenarios, pass, report);
    if (p == 0) {
      chain = pass_chain;
      std::printf("t1_grid: %zu scenarios x %zu seeds = %zu sessions per pass, digest chain %s\n",
                  in.scenarios.size(), in.seeds.size(), sessions,
                  vafs::obs::digest_hex(chain).c_str());
      if (args.seed == kDefaultSeed) {
        report.check(chain == kPinnedChain, "t1_grid digest chain " + vafs::obs::digest_hex(chain) +
                                                " differs from the pinned " +
                                                vafs::obs::digest_hex(kPinnedChain));
      }
    }
    report.check(pass_chain == chain, "t1_grid digest chain changed between passes");
  }

  if (!args.trace) {
    units.report(report, rss_mib);
    return;
  }
  decisions.take_samples();

  // Traced run: the same sessions through the benchmark's own loop.
  const std::vector<Cell> cells = grid_cells(in.scenarios, in.seeds);
  TracedPass pass = trace_cells(cells, spans, report);
  std::vector<std::uint64_t> digests;
  for (const CellTrace& c : pass.cells) digests.push_back(c.digest);
  report.check(chain_of(digests) == chain, "traced t1_grid sessions ran a different digest chain");
  const KindCounts counts = count_kinds(cells, report);
  report.check(count_kinds(cells, report) == counts, "event-kind counts did not repeat exactly");
  report.check(counts.digests == digests, "full-ring sessions ran different digests");
  report_session_layers(report, pass, counts, /*coverage_required=*/true);
  // Overhead: the traced sessions against the same sessions run untraced
  // through exp::run_one_task, which is what run_grid runs per session.
  double session_ns = 0.0, task_ns = 0.0;
  for (const CellTrace& c : pass.cells) {
    session_ns += static_cast<double>(c.session_ns);
    task_ns += static_cast<double>(c.task_ns);
  }
  report.metric("trace.overhead_share", session_ns / task_ns - 1.0, "ratio");
  FleetLayers no_fleet;
  report_fleet_layers(report, no_fleet);
  ServeLayers no_serve;
  report_serve_layers(report, no_serve);
}

}  // namespace perfbench
