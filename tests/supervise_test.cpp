// Tests for supervised fleet execution (src/supervise), organized around
// its correctness claims:
//
//  1. Clean path: a supervised run is bit-identical — aggregate state
//     bits, digest chain, spool and manifest bytes — to the in-process
//     fleet runner at any worker count.
//  2. Chaos path: with seeded HarnessChaos injection the run completes;
//     the quarantine set is exactly the deterministic prediction from
//     chaos_fate (every attempt lethal); and the digest chain over the
//     survivors is bit-identical to a serial run over that surviving set.
//  3. Kill/resume: a supervised run stopped at any shard boundary and
//     resumed produces byte-identical artifacts (manifest, spool,
//     quarantine.jsonl) to an uninterrupted run.
//
// The wire and chaos layers get direct property tests (adversarial
// doubles through the hex encoding, fate purity and band coverage).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/grid.h"
#include "exp/runner.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard_plan.h"
#include "obs/trace.h"
#include "supervise/chaos.h"
#include "supervise/supervisor.h"
#include "supervise/wire.h"

#if defined(__SANITIZE_ADDRESS__)
#define VAFS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VAFS_ASAN 1
#endif
#endif

namespace vafs::supervise {
namespace {

using namespace std::string_literals;
namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("vafs_supervise_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

core::SessionConfig small_config() {
  core::SessionConfig config;
  config.media_duration = sim::SimTime::seconds(20);
  config.net = core::NetProfile::kFair;
  config.fixed_rep = 2;
  return config;
}

std::vector<exp::ScenarioSpec> small_grid() {
  exp::ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  return grid.scenarios();
}

const std::vector<std::uint64_t> kSeeds = {101, 202, 303, 404, 505};

void expect_agg_bits(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.all_finished, b.all_finished);
  for (const auto& m : exp::Aggregate::metrics()) {
    const sim::OnlineStats::State sa = (a.*m.member).state();
    const sim::OnlineStats::State sb = (b.*m.member).state();
    EXPECT_EQ(sa.n, sb.n) << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean), std::bit_cast<std::uint64_t>(sb.mean))
        << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2), std::bit_cast<std::uint64_t>(sb.m2)) << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min), std::bit_cast<std::uint64_t>(sb.min))
        << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max), std::bit_cast<std::uint64_t>(sb.max))
        << m.name;
  }
}

/// Predicted quarantine set: tasks whose first max_attempts chaos fates
/// are all lethal (any fate but kNone kills or wedges the attempt).
std::set<std::uint64_t> predicted_quarantine(const ChaosConfig& chaos, std::uint64_t task_count,
                                             int max_attempts) {
  std::set<std::uint64_t> out;
  for (std::uint64_t t = 0; t < task_count; ++t) {
    bool all_lethal = true;
    for (int a = 0; a < max_attempts; ++a) {
      if (chaos_fate(chaos, t, a) == ChaosFate::kNone) {
        all_lethal = false;
        break;
      }
    }
    if (all_lethal) out.insert(t);
  }
  return out;
}

/// Serial ground truth over a surviving task set: run_one_task in
/// canonical order, skipping quarantined tasks, chaining the digests.
std::uint64_t survivor_chain(const std::vector<exp::ScenarioSpec>& scenarios,
                             const std::vector<std::uint64_t>& seeds, std::size_t shard_size,
                             const std::set<std::uint64_t>& skip) {
  const fleet::ShardPlan plan(scenarios.size(), seeds.size(), shard_size);
  core::SessionArena arena;
  std::uint64_t chain = 0;
  for (std::uint64_t t = 0; t < plan.task_count(); ++t) {
    if (skip.count(t) != 0) continue;
    const fleet::TaskRef ref = plan.task(t);
    const exp::TaskOutcome out =
        exp::run_one_task(scenarios[ref.scenario], seeds[ref.seed_index], {}, true, &arena);
    chain = obs::chain_digest(chain, out.ok() ? out.result.trace_digest : 0);
  }
  return chain;
}

// --------------------------------------------------------- clean path

TEST(Supervise, CleanPathMatchesInProcessFleetBitwise) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.jobs = 2;
  fopts.seeds = kSeeds;
  fopts.shard_size = 3;
  const fs::path ref_dir = fresh_dir("clean_ref");
  fopts.checkpoint_dir = ref_dir.string();
  fopts.spool.format = fleet::SpoolFormat::kCsv;
  const fleet::FleetResult ref = run_fleet(scenarios, fopts);
  ASSERT_TRUE(ref.complete()) << ref.error;
  const std::string ref_spool = slurp(ref_dir / "spool.csv");
  const std::string ref_manifest = slurp(ref_dir / "manifest.ckpt");
  ASSERT_FALSE(ref_manifest.empty());

  for (const int workers : {1, 3}) {
    const fs::path dir = fresh_dir("clean_w" + std::to_string(workers));
    fleet::FleetOptions sup_fopts = fopts;
    sup_fopts.checkpoint_dir = dir.string();
    SuperviseOptions sopts;
    sopts.workers = workers;
    const SupervisedResult sup = run_supervised(scenarios, sup_fopts, sopts);
    ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
    EXPECT_EQ(sup.fleet.digest_chain, ref.digest_chain);
    EXPECT_EQ(sup.fleet.sessions_run, ref.sessions_run);
    EXPECT_EQ(sup.worker_deaths, 0u);
    EXPECT_EQ(sup.task_retries, 0u);
    EXPECT_TRUE(sup.quarantine.empty());
    ASSERT_EQ(sup.fleet.scenarios.size(), ref.scenarios.size());
    for (std::size_t s = 0; s < ref.scenarios.size(); ++s) {
      expect_agg_bits(sup.fleet.scenarios[s].agg, ref.scenarios[s].agg);
    }
    EXPECT_EQ(slurp(dir / "spool.csv"), ref_spool);
    // Both runners checkpoint through one ledger: the manifests match
    // byte for byte.
    EXPECT_EQ(slurp(dir / "manifest.ckpt"), ref_manifest);
    // Nothing was quarantined, so no quarantine log entries.
    EXPECT_EQ(slurp(dir / "quarantine.jsonl"), "");
  }
}

TEST(Supervise, CapturedTaskFailuresFlowThroughTheWire) {
  // An impossible governor makes every session throw at bring-up; the
  // worker ships the error back as an F line and the fold records it
  // exactly as the in-process path does.
  core::SessionConfig config = small_config();
  exp::ExperimentGrid grid(config);
  grid.governors({"no-such-governor"});
  const auto scenarios = grid.scenarios();

  fleet::FleetOptions fopts;
  fopts.seeds = {101, 202};
  fopts.shard_size = 2;
  const fleet::FleetResult ref = run_fleet(scenarios, fopts);
  ASSERT_TRUE(ref.complete());
  ASSERT_EQ(ref.failures.size(), 2u);

  SuperviseOptions sopts;
  sopts.workers = 2;
  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  EXPECT_EQ(sup.fleet.digest_chain, ref.digest_chain);
  ASSERT_EQ(sup.fleet.failures.size(), ref.failures.size());
  for (std::size_t i = 0; i < ref.failures.size(); ++i) {
    EXPECT_EQ(sup.fleet.failures[i].task_index, ref.failures[i].task_index);
    EXPECT_EQ(sup.fleet.failures[i].seed, ref.failures[i].seed);
    EXPECT_EQ(sup.fleet.failures[i].message, ref.failures[i].message);
  }
  // A captured failure is not a worker death.
  EXPECT_EQ(sup.worker_deaths, 0u);
}

// --------------------------------------------------------- chaos path

TEST(Supervise, ChaosRecoveryPreservesTheFullDigestChain) {
  // Rates low enough that no task draws three lethal fates in a row: the
  // run must recover every kill and match the clean chain exactly. The
  // prediction is asserted, not assumed.
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = kSeeds;
  fopts.shard_size = 4;

  const fleet::FleetResult ref = run_fleet(scenarios, fopts);
  ASSERT_TRUE(ref.complete());

  SuperviseOptions sopts;
  sopts.workers = 3;
  sopts.chaos.seed = 7;
  sopts.chaos.exit_rate = 0.2;
  const fleet::ShardPlan plan(scenarios.size(), fopts.seeds.size(), fopts.shard_size);
  ASSERT_TRUE(
      predicted_quarantine(sopts.chaos, plan.task_count(), sopts.max_task_attempts).empty());

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  EXPECT_GT(sup.worker_deaths, 0u);
  EXPECT_GT(sup.task_retries, 0u);
  EXPECT_TRUE(sup.quarantine.empty());
  EXPECT_EQ(sup.fleet.digest_chain, ref.digest_chain);
  EXPECT_EQ(sup.fleet.sessions_run, ref.sessions_run);
  for (std::size_t s = 0; s < ref.scenarios.size(); ++s) {
    expect_agg_bits(sup.fleet.scenarios[s].agg, ref.scenarios[s].agg);
  }
}

TEST(Supervise, QuarantineSetIsTheDeterministicPredictionAndSurvivorsMatchSerial) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = kSeeds;
  fopts.shard_size = 4;

  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.max_task_attempts = 2;
  sopts.chaos.seed = 40;
  sopts.chaos.exit_rate = 0.6;
  const fleet::ShardPlan plan(scenarios.size(), fopts.seeds.size(), fopts.shard_size);
  const std::set<std::uint64_t> predicted =
      predicted_quarantine(sopts.chaos, plan.task_count(), sopts.max_task_attempts);
  ASSERT_FALSE(predicted.empty());
  ASSERT_LT(predicted.size(), plan.task_count());

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;

  std::set<std::uint64_t> actual;
  for (const QuarantineRecord& q : sup.quarantine) actual.insert(q.task_index);
  EXPECT_EQ(actual, predicted);

  // The acceptance property: the digest chain over the non-quarantined
  // tasks is bitwise identical to a clean serial run over that same
  // surviving set.
  EXPECT_EQ(sup.fleet.digest_chain,
            survivor_chain(scenarios, fopts.seeds, fopts.shard_size, predicted));
  EXPECT_EQ(sup.fleet.sessions_run + predicted.size(), plan.task_count());
}

TEST(Supervise, QuarantineRecordsCarryFullContext) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101, 202};
  fopts.shard_size = 2;
  const fs::path dir = fresh_dir("qrecord");
  fopts.checkpoint_dir = dir.string();

  SuperviseOptions sopts;
  sopts.workers = 1;
  sopts.max_task_attempts = 2;
  sopts.chaos.seed = 5;
  sopts.chaos.exit_rate = 1.0;  // every attempt dies: everything quarantines

  const fleet::ShardPlan plan(scenarios.size(), fopts.seeds.size(), fopts.shard_size);
  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  ASSERT_EQ(sup.quarantine.size(), plan.task_count());
  EXPECT_EQ(sup.fleet.sessions_run, 0u);
  EXPECT_EQ(sup.fleet.digest_chain, 0u);

  for (std::uint64_t t = 0; t < plan.task_count(); ++t) {
    const QuarantineRecord& q = sup.quarantine[t];
    const fleet::TaskRef ref = plan.task(t);
    EXPECT_EQ(q.task_index, t);  // canonical order
    EXPECT_EQ(q.seed, fopts.seeds[ref.seed_index]);
    EXPECT_EQ(q.scenario, scenarios[ref.scenario].id);
    EXPECT_EQ(q.attempts, 2);
    ASSERT_EQ(q.fates.size(), 2u);
    for (const std::string& fate : q.fates) EXPECT_EQ(fate, "exit:41");
    // The chaos announcement of the final attempt is in the stderr tail.
    EXPECT_NE(q.stderr_tail.find("chaos: task " + std::to_string(t) + " attempt 1 fate exit"),
              std::string::npos)
        << q.stderr_tail;
  }

  // The quarantine log has one line per record, in the same order.
  std::istringstream log(slurp(dir / "quarantine.jsonl"));
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(log, line)) {
    EXPECT_EQ(line.rfind("{\"task\":" + std::to_string(lines) + ",", 0), 0u) << line;
    EXPECT_NE(line.find("\"fates\":[\"exit:41\",\"exit:41\"]"), std::string::npos) << line;
    ++lines;
  }
  EXPECT_EQ(lines, plan.task_count());
}

TEST(Supervise, CrashAndAbortTaxonomy) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101};
  fopts.shard_size = 2;

  SuperviseOptions sopts;
  sopts.workers = 1;
  sopts.max_task_attempts = 1;
  sopts.chaos.seed = 3;
  sopts.chaos.crash = 1.0;

  const SupervisedResult crash = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(crash.fleet.complete()) << crash.fleet.error;
  ASSERT_EQ(crash.quarantine.size(), 2u);
#ifndef VAFS_ASAN
  // ASan intercepts the SEGV and turns it into a reporting exit; the
  // taxonomy is only exact without it.
  EXPECT_EQ(crash.quarantine[0].fates[0], "crash:SIGSEGV");
#endif

  sopts.chaos.crash = 0.0;
  sopts.chaos.abort_rate = 1.0;
  const SupervisedResult aborted = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(aborted.fleet.complete()) << aborted.fleet.error;
  ASSERT_EQ(aborted.quarantine.size(), 2u);
#ifndef VAFS_ASAN
  EXPECT_EQ(aborted.quarantine[0].fates[0], "abort:SIGABRT");
#endif
}

TEST(Supervise, SilentHangIsReapedByHeartbeatTimeout) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101, 202};
  fopts.shard_size = 4;

  const fleet::FleetResult ref = run_fleet(scenarios, fopts);
  ASSERT_TRUE(ref.complete());

  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.heartbeat_interval_ms = 20;
  sopts.heartbeat_timeout_ms = 200;
  sopts.chaos.seed = 11;
  sopts.chaos.hang_silent = 0.3;
  const fleet::ShardPlan plan(scenarios.size(), fopts.seeds.size(), fopts.shard_size);
  ASSERT_TRUE(
      predicted_quarantine(sopts.chaos, plan.task_count(), sopts.max_task_attempts).empty());

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  EXPECT_GT(sup.heartbeat_kills, 0u);
  EXPECT_EQ(sup.fleet.digest_chain, ref.digest_chain);
}

TEST(Supervise, StallingTaskIsReapedByTheExternalDeadline) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101, 202};
  fopts.shard_size = 4;

  const fleet::FleetResult ref = run_fleet(scenarios, fopts);
  ASSERT_TRUE(ref.complete());

  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.heartbeat_interval_ms = 20;
  sopts.task_deadline_ms = 300;
  sopts.chaos.seed = 11;
  sopts.chaos.stall = 0.3;
  const fleet::ShardPlan plan(scenarios.size(), fopts.seeds.size(), fopts.shard_size);
  ASSERT_TRUE(
      predicted_quarantine(sopts.chaos, plan.task_count(), sopts.max_task_attempts).empty());

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  EXPECT_GT(sup.deadline_kills, 0u);
  // A stalling worker keeps heartbeating: the hang detector must not fire.
  EXPECT_EQ(sup.heartbeat_kills, 0u);
  EXPECT_EQ(sup.fleet.digest_chain, ref.digest_chain);
  for (const QuarantineRecord& q : sup.quarantine) {
    for (const std::string& fate : q.fates) EXPECT_EQ(fate, "deadline:exceeded");
  }
}

#ifndef VAFS_ASAN
TEST(Supervise, LeakingWorkerDiesInsideItsAddressSpaceBudget) {
  // RLIMIT_AS interacts with ASan's shadow memory, so this only runs in
  // plain builds. The leak fate allocates until the budget stops it, then
  // SIGKILLs itself like the kernel OOM killer would.
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101};
  fopts.shard_size = 2;

  SuperviseOptions sopts;
  sopts.workers = 1;
  sopts.max_task_attempts = 1;
  sopts.worker_as_limit_mb = 512;
  sopts.chaos_leak_cap_mb = 4096;  // above the AS limit: the limit acts first
  sopts.chaos.seed = 3;
  sopts.chaos.leak = 1.0;

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;
  EXPECT_EQ(sup.quarantine.size(), 2u);
  EXPECT_GT(sup.worker_deaths, 0u);
}
#endif

// --------------------------------------------------------- kill/resume

TEST(Supervise, KillAndResumeReproducesEveryArtifactByteForByte) {
  const auto scenarios = small_grid();
  const auto base_opts = [&](const fs::path& dir) {
    fleet::FleetOptions fopts;
    fopts.seeds = kSeeds;
    fopts.shard_size = 2;  // 10 tasks -> 5 shards
    fopts.checkpoint_dir = dir.string();
    fopts.checkpoint_every_shards = 1;
    fopts.spool.format = fleet::SpoolFormat::kCsv;
    return fopts;
  };
  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.max_task_attempts = 2;
  sopts.chaos.seed = 40;
  sopts.chaos.exit_rate = 0.6;  // some tasks quarantine, most survive

  const fs::path ref_dir = fresh_dir("resume_ref");
  const fleet::FleetOptions ref_opts = base_opts(ref_dir);
  const SupervisedResult ref = run_supervised(scenarios, ref_opts, sopts);
  ASSERT_TRUE(ref.fleet.complete()) << ref.fleet.error;
  ASSERT_FALSE(ref.quarantine.empty());
  const std::string ref_manifest = slurp(ref_dir / "manifest.ckpt");
  const std::string ref_spool = slurp(ref_dir / "spool.csv");
  const std::string ref_quarantine = slurp(ref_dir / "quarantine.jsonl");

  for (const std::uint64_t kill_after : {1ull, 2ull, 4ull}) {
    const fs::path dir = fresh_dir("resume_k" + std::to_string(kill_after));
    fleet::FleetOptions fopts = base_opts(dir);
    fopts.on_progress = [kill_after](std::uint64_t done, std::uint64_t) {
      return done < kill_after;
    };
    const SupervisedResult first = run_supervised(scenarios, fopts, sopts);
    ASSERT_TRUE(first.fleet.ok()) << first.fleet.error;
    ASSERT_TRUE(first.fleet.stopped);

    fleet::FleetOptions resume_opts = base_opts(dir);
    resume_opts.resume = true;
    const SupervisedResult second = run_supervised(scenarios, resume_opts, sopts);
    ASSERT_TRUE(second.fleet.complete()) << second.fleet.error;

    EXPECT_EQ(second.fleet.digest_chain, ref.fleet.digest_chain);
    EXPECT_EQ(slurp(dir / "manifest.ckpt"), ref_manifest) << "kill at " << kill_after;
    EXPECT_EQ(slurp(dir / "spool.csv"), ref_spool) << "kill at " << kill_after;
    EXPECT_EQ(slurp(dir / "quarantine.jsonl"), ref_quarantine) << "kill at " << kill_after;
    for (std::size_t s = 0; s < ref.fleet.scenarios.size(); ++s) {
      expect_agg_bits(second.fleet.scenarios[s].agg, ref.fleet.scenarios[s].agg);
    }
  }
}

TEST(Supervise, SupervisedManifestResumesInProcess) {
  // Cross-runner composition: a quarantine-bearing manifest written by a
  // stopped supervised run resumes under plain run_fleet, which carries
  // the quarantine list through untouched and finishes the grid.
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("cross_runner");
  fleet::FleetOptions fopts;
  fopts.seeds = kSeeds;
  fopts.shard_size = 2;
  fopts.checkpoint_dir = dir.string();
  fopts.checkpoint_every_shards = 1;

  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.max_task_attempts = 2;
  sopts.chaos.seed = 40;
  sopts.chaos.exit_rate = 0.6;

  fleet::FleetOptions stop_opts = fopts;
  stop_opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 3; };
  const SupervisedResult first = run_supervised(scenarios, stop_opts, sopts);
  ASSERT_TRUE(first.fleet.stopped);
  ASSERT_FALSE(first.quarantine.empty());

  fleet::FleetOptions resume_opts = fopts;
  resume_opts.resume = true;
  const fleet::FleetResult second = run_fleet(scenarios, resume_opts);
  ASSERT_TRUE(second.complete()) << second.error;
  EXPECT_EQ(second.quarantined.size(), first.quarantine.size());
  EXPECT_EQ(second.quarantined[0].task_index, first.quarantine[0].task_index);
  EXPECT_EQ(second.quarantined[0].fates, "exit:41,exit:41");
}

// --------------------------------------------------------- observability

TEST(Supervise, LifecycleEventsLandOnTheHarnessTrack) {
  const auto scenarios = small_grid();
  fleet::FleetOptions fopts;
  fopts.seeds = {101, 202};
  fopts.shard_size = 4;

  obs::Tracer tracer(obs::Tracer::Config{1 << 12});
  SuperviseOptions sopts;
  sopts.workers = 2;
  sopts.max_task_attempts = 2;
  sopts.chaos.seed = 40;
  sopts.chaos.exit_rate = 0.6;
  sopts.tracer = &tracer;

  const SupervisedResult sup = run_supervised(scenarios, fopts, sopts);
  ASSERT_TRUE(sup.fleet.complete()) << sup.fleet.error;

  std::uint64_t spawns = 0;
  std::uint64_t exits = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantines = 0;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& e = tracer.event(i);
    EXPECT_EQ(obs::event_info(e.kind).track, obs::Track::kHarness);
    switch (e.kind) {
      case obs::EventKind::kWorkerSpawn: ++spawns; break;
      case obs::EventKind::kWorkerExit: ++exits; break;
      case obs::EventKind::kTaskDispatch: ++dispatches; break;
      case obs::EventKind::kTaskRetry: ++retries; break;
      case obs::EventKind::kTaskQuarantine: ++quarantines; break;
      default: break;
    }
  }
  EXPECT_EQ(spawns, sup.worker_spawns);
  EXPECT_GT(exits, 0u);
  EXPECT_GE(dispatches, sup.fleet.sessions_run + sup.quarantine.size());
  EXPECT_EQ(retries, sup.task_retries);
  EXPECT_EQ(quarantines, sup.quarantine.size());
}

// --------------------------------------------------------- chaos layer

TEST(Chaos, FatesArePureAndCoverEveryBand) {
  ChaosConfig config;
  config.seed = 99;
  config.crash = 0.1;
  config.abort_rate = 0.1;
  config.exit_rate = 0.1;
  config.hang_silent = 0.1;
  config.stall = 0.1;
  config.leak = 0.1;

  std::set<ChaosFate> seen;
  for (std::uint64_t t = 0; t < 500; ++t) {
    for (int a = 0; a < 3; ++a) {
      const ChaosFate fate = chaos_fate(config, t, a);
      EXPECT_EQ(fate, chaos_fate(config, t, a));  // pure
      seen.insert(fate);
    }
  }
  // 1500 draws at 10% per band: every fate (and kNone) appears.
  EXPECT_EQ(seen.size(), 7u);

  // Attempt number is part of the key: fates differ across attempts.
  bool any_attempt_difference = false;
  for (std::uint64_t t = 0; t < 100 && !any_attempt_difference; ++t) {
    any_attempt_difference = chaos_fate(config, t, 0) != chaos_fate(config, t, 1);
  }
  EXPECT_TRUE(any_attempt_difference);

  // No rates, no fate — regardless of seed.
  EXPECT_EQ(chaos_fate(ChaosConfig{}, 1, 0), ChaosFate::kNone);
}

// --------------------------------------------------------- wire layer

TEST(Wire, ResultRoundTripsAdversarialDoublesBitwise) {
  WireResult in;
  in.task_index = 0xFFFFFFFFFFFFull;
  in.finished = true;
  in.digest = 0xDEADBEEFCAFEF00Dull;
  in.values[0] = -0.0;
  in.values[1] = std::numeric_limits<double>::infinity();
  in.values[2] = -std::numeric_limits<double>::infinity();
  in.values[3] = std::numeric_limits<double>::quiet_NaN();
  in.values[4] = 5e-324;  // smallest denormal
  for (std::size_t i = 5; i < exp::kMetricCount; ++i) {
    in.values[i] = 1.0 / static_cast<double>(i * 3 + 1);
  }

  std::string line;
  encode_result(&line, in);
  ASSERT_EQ(line.back(), '\n');
  ASSERT_LT(line.size(), 4096u);  // single atomic pipe write

  WireResult out;
  ASSERT_TRUE(parse_result(std::string_view(line).substr(0, line.size() - 1), &out));
  EXPECT_EQ(out.task_index, in.task_index);
  EXPECT_EQ(out.finished, in.finished);
  EXPECT_EQ(out.digest, in.digest);
  for (std::size_t i = 0; i < exp::kMetricCount; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.values[i]),
              std::bit_cast<std::uint64_t>(in.values[i]))
        << i;
  }
}

TEST(Wire, FailureRoundTripsAwkwardBytesAndClampsLongMessages) {
  std::string line;
  const std::string nasty = "newline\nnull\0tab\tquote\""s;
  encode_failure(&line, 42, nasty);
  WireFailure out;
  ASSERT_TRUE(parse_failure(std::string_view(line).substr(0, line.size() - 1), &out));
  EXPECT_EQ(out.task_index, 42u);
  EXPECT_EQ(out.error, nasty);

  line.clear();
  encode_failure(&line, 7, std::string(100000, 'x'));
  ASSERT_LT(line.size(), 4096u);
  ASSERT_TRUE(parse_failure(std::string_view(line).substr(0, line.size() - 1), &out));
  EXPECT_EQ(out.error.size(), kMaxErrorBytes);

  // Empty error message survives too (hex "-" placeholder).
  line.clear();
  encode_failure(&line, 9, "");
  ASSERT_TRUE(parse_failure(std::string_view(line).substr(0, line.size() - 1), &out));
  EXPECT_EQ(out.error, "");
}

TEST(Wire, CommandAndHeartbeatRoundTrip) {
  std::string line;
  encode_task(&line, 123456, 2);
  std::uint64_t task = 0;
  int attempt = 0;
  ASSERT_TRUE(parse_task(std::string_view(line).substr(0, line.size() - 1), &task, &attempt));
  EXPECT_EQ(task, 123456u);
  EXPECT_EQ(attempt, 2);

  line.clear();
  encode_quit(&line);
  EXPECT_TRUE(is_quit(std::string_view(line).substr(0, line.size() - 1)));

  line.clear();
  encode_begin(&line, 77);
  ASSERT_TRUE(parse_begin(std::string_view(line).substr(0, line.size() - 1), &task));
  EXPECT_EQ(task, 77u);

  line.clear();
  WireHeartbeat hb_in{9, 640, 0xABCDEF0123456789ull};
  encode_heartbeat(&line, hb_in);
  WireHeartbeat hb_out;
  ASSERT_TRUE(parse_heartbeat(std::string_view(line).substr(0, line.size() - 1), &hb_out));
  EXPECT_EQ(hb_out.beat, hb_in.beat);
  EXPECT_EQ(hb_out.trace_events, hb_in.trace_events);
  EXPECT_EQ(hb_out.trace_digest, hb_in.trace_digest);

  // Malformed lines are rejected, not misparsed.
  WireResult r;
  EXPECT_FALSE(parse_result("R 1 1", &r));
  EXPECT_FALSE(parse_task("T 1", &task, &attempt));
  EXPECT_FALSE(parse_task("T 1 99999999", &task, &attempt));
  // A task index past 2^64 - 1 is refused, not wrapped onto task 0.
  EXPECT_FALSE(parse_task("T 18446744073709551616 0", &task, &attempt));
  ASSERT_TRUE(parse_task("T 18446744073709551615 0", &task, &attempt));
  EXPECT_EQ(task, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_heartbeat("H x 0 0000000000000000", &hb_out));
}

}  // namespace
}  // namespace vafs::supervise
