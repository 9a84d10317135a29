// Tests for the fleet-scale sharded runner (src/fleet), organized around
// its one correctness claim: any interleaving, any kill point, same
// answer. The differential tests pin a sharded run — across job counts,
// shard sizes and kill/resume cycles — bit-for-bit against a serial
// run_one_task reference (aggregate state bits AND the trace-digest
// chain, so even a single reordered RNG draw anywhere in the stack shows
// up). The property tests cover the pieces that claim rests on: shard
// plans partition the task order exactly, checkpoint manifests round-trip
// bit-exactly and reject truncation/corruption, and Aggregate::merge is an
// abelian-monoid fold (identity exact; commutative/associative up to FP
// rounding).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/grid.h"
#include "exp/runner.h"
#include "fault/plan.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet_runner.h"
#include "fleet/io.h"
#include "fleet/shard_plan.h"
#include "fleet/spool.h"
#include "obs/trace.h"
#include "simcore/parse.h"
#include "simcore/rng.h"

namespace vafs::fleet {
namespace {

using namespace std::string_literals;
namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("vafs_fleet_test_" + name);
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

/// A grid whose sessions retry and hang: every fetch fate and backoff
/// jitter draw in the stack gets exercised, and all of it lands in the
/// per-session digests (fetch begin/attempt/end events).
std::vector<exp::ScenarioSpec> faulted_grid() {
  core::SessionConfig base = small_config();
  base.fault.fetch_failure_prob = 0.15;
  base.fault.fetch_hang_prob = 0.05;
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  exp::ExperimentGrid grid(base);
  grid.governors({"ondemand", "vafs"});
  return grid.scenarios();
}

const std::vector<std::uint64_t> kSeeds = {101, 202, 303, 404, 505};

/// Serial ground truth: every task run with a digest tracer on this
/// thread, in canonical task order (scenario-major, seed fastest — the
/// same order every shard plan replays), folded by Aggregate::add and
/// chained by hand. It shares no executor and no fold with run_fleet, so
/// the differential compares two independent paths.
struct Reference {
  std::vector<exp::Aggregate> aggs;
  std::uint64_t chain = 0;
};

Reference serial_reference(const std::vector<exp::ScenarioSpec>& scenarios,
                           const std::vector<std::uint64_t>& seeds) {
  Reference ref;
  core::SessionArena arena;
  for (const exp::ScenarioSpec& spec : scenarios) {
    exp::Aggregate agg;
    for (const std::uint64_t seed : seeds) {
      const exp::TaskOutcome out = exp::run_one_task(spec, seed, {}, true, &arena);
      EXPECT_TRUE(out.ok()) << out.error;
      agg.add(out.result);
      ref.chain = obs::chain_digest(ref.chain, out.result.trace_digest);
    }
    ref.aggs.push_back(agg);
  }
  return ref;
}

/// Bitwise aggregate equality: every metric's full Welford state compared
/// as raw IEEE-754 bit patterns — "close enough" is a failure here.
void expect_agg_bits(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.all_finished, b.all_finished);
  for (const auto& m : exp::Aggregate::metrics()) {
    const sim::OnlineStats::State sa = (a.*m.member).state();
    const sim::OnlineStats::State sb = (b.*m.member).state();
    EXPECT_EQ(sa.n, sb.n) << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean), std::bit_cast<std::uint64_t>(sb.mean))
        << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2), std::bit_cast<std::uint64_t>(sb.m2))
        << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min), std::bit_cast<std::uint64_t>(sb.min))
        << m.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max), std::bit_cast<std::uint64_t>(sb.max))
        << m.name;
  }
}

void expect_matches_reference(const FleetResult& result, const Reference& ref) {
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.digest_chain, ref.chain);
  ASSERT_EQ(result.scenarios.size(), ref.aggs.size());
  for (std::size_t s = 0; s < ref.aggs.size(); ++s) {
    expect_agg_bits(result.scenarios[s].agg, ref.aggs[s]);
  }
}

FleetOptions checkpointed_opts(const fs::path& dir, std::size_t shard_size) {
  FleetOptions opts;
  opts.jobs = 4;
  opts.seeds = kSeeds;
  opts.shard_size = shard_size;
  opts.checkpoint_dir = dir.string();
  opts.checkpoint_every_shards = 1;
  opts.spool.format = SpoolFormat::kCsv;
  return opts;
}

// ------------------------------------------------------------ shard plan

TEST(ShardPlan, ShardsPartitionTheTaskOrderExactly) {
  const std::tuple<std::size_t, std::size_t, std::size_t> cases[] = {
      {3, 5, 4}, {1, 1, 64}, {2, 7, 1}, {4, 4, 16}, {5, 3, 7}};
  for (const auto& [scenarios, seeds, shard] : cases) {
    const ShardPlan plan(scenarios, seeds, shard);
    EXPECT_EQ(plan.task_count(), scenarios * seeds);
    EXPECT_EQ(plan.shard_count(), (plan.task_count() + shard - 1) / shard);
    std::size_t covered = 0;
    for (std::size_t id = 0; id < plan.shard_count(); ++id) {
      const Shard sh = plan.shard(id);
      EXPECT_EQ(sh.id, id);
      EXPECT_EQ(sh.first_task, covered);
      EXPECT_GE(sh.task_count, 1u);
      EXPECT_LE(sh.task_count, shard);
      covered += sh.task_count;
    }
    EXPECT_EQ(covered, plan.task_count());
    // Canonical coordinates: scenario-major, seed fastest.
    for (std::size_t t = 0; t < plan.task_count(); ++t) {
      const TaskRef ref = plan.task(t);
      EXPECT_EQ(ref.scenario, t / seeds);
      EXPECT_EQ(ref.seed_index, t % seeds);
    }
  }
}

TEST(ShardPlan, FingerprintCoversGridSeedsAndLayout) {
  const auto scenarios = small_grid();
  const std::uint64_t base = grid_fingerprint(scenarios, kSeeds, 64);
  EXPECT_EQ(grid_fingerprint(scenarios, kSeeds, 64), base);  // deterministic

  EXPECT_NE(grid_fingerprint(scenarios, kSeeds, 32), base);  // shard layout
  std::vector<std::uint64_t> other_seeds = kSeeds;
  other_seeds.back() = 506;
  EXPECT_NE(grid_fingerprint(scenarios, other_seeds, 64), base);  // seed list
  auto reordered = scenarios;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(grid_fingerprint(reordered, kSeeds, 64), base);  // scenario order
}

// ---------------------------------------------------------- differential

TEST(FleetDifferential, MatchesSerialRunGridAcrossJobsAndShardSizes) {
  const auto scenarios = small_grid();
  const Reference ref = serial_reference(scenarios, kSeeds);
  ASSERT_NE(ref.chain, 0u);

  for (const int jobs : {1, 4, 16}) {
    for (const std::size_t shard_size : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      FleetOptions opts;
      opts.jobs = jobs;
      opts.seeds = kSeeds;
      opts.shard_size = shard_size;
      const FleetResult result = run_fleet(scenarios, opts);
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " shard_size=" + std::to_string(shard_size));
      expect_matches_reference(result, ref);
      EXPECT_EQ(result.sessions_run, scenarios.size() * kSeeds.size());
      EXPECT_EQ(result.sessions_resumed, 0u);
      EXPECT_TRUE(result.failures.empty());
    }
  }
}

TEST(FleetDifferential, ShardBoundaryAcrossFaultedSegmentsIsInvariant) {
  // The RNG-keying regression test at system level: fetch fates and retry
  // backoff jitter are keyed per (session, segment, attempt), so moving a
  // shard boundary across a faulted segment must not change a single
  // FetchResult — and since every fetch begin/attempt/end event is in the
  // per-session digest, any divergence breaks the chain.
  const auto scenarios = faulted_grid();
  const Reference ref = serial_reference(scenarios, kSeeds);

  // The grid actually faults: retries happened somewhere.
  double total_retries = 0.0;
  for (const auto& agg : ref.aggs) total_retries += agg.fetch_retries.sum();
  ASSERT_GT(total_retries, 0.0);

  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    FleetOptions opts;
    opts.jobs = 4;
    opts.seeds = kSeeds;
    opts.shard_size = shard_size;
    SCOPED_TRACE("shard_size=" + std::to_string(shard_size));
    expect_matches_reference(run_fleet(scenarios, opts), ref);
  }
}

TEST(FleetDifferential, PopulationMixSweepIsInvariantAcrossJobsShardsAndResume) {
  // A >=4-profile weighted device population on the seed axis: each
  // session's device is a pure hash of its seed, so no shard boundary,
  // job count or kill/resume point may move a session onto a different
  // device. Any misdraw changes that session's whole event stream and
  // breaks the digest chain.
  exp::ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"})
      .population(device::PopulationMix::named("global"));
  const auto scenarios = grid.scenarios();
  ASSERT_NE(scenarios[0].label("mix"), nullptr);
  EXPECT_EQ(*scenarios[0].label("mix"), "global");

  const Reference ref = serial_reference(scenarios, kSeeds);
  ASSERT_NE(ref.chain, 0u);

  // The mix actually scatters devices: multi-cluster draws show up as
  // little-cluster energy on some sessions but not all.
  {
    exp::RunOptions opts;
    opts.jobs = 1;
    opts.seeds = kSeeds;
    const exp::ResultSet rs = exp::run_grid(scenarios, opts);
    std::size_t multi = 0, single = 0, named = 0;
    for (const auto& sr : rs.all()) {
      for (const auto& run : sr.runs) {
        (run.clusters.size() > 1 ? multi : single) += 1;
        named += run.device.empty() ? 0 : 1;
      }
    }
    EXPECT_GT(multi, 0u);
    EXPECT_GT(single, 0u);
    EXPECT_EQ(named, scenarios.size() * kSeeds.size());
  }

  for (const int jobs : {1, 4}) {
    for (const std::size_t shard_size : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      FleetOptions opts;
      opts.jobs = jobs;
      opts.seeds = kSeeds;
      opts.shard_size = shard_size;
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " shard_size=" + std::to_string(shard_size));
      expect_matches_reference(run_fleet(scenarios, opts), ref);
    }
  }

  // Kill mid-grid and resume: the finished run is still chain-identical.
  const fs::path dir = fresh_dir("mix_resume");
  FleetOptions opts = checkpointed_opts(dir, 2);
  opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 2; };
  const FleetResult killed = run_fleet(scenarios, opts);
  ASSERT_TRUE(killed.ok()) << killed.error;
  ASSERT_TRUE(killed.stopped);
  FleetOptions resume = checkpointed_opts(dir, 2);
  resume.resume = true;
  expect_matches_reference(run_fleet(scenarios, resume), ref);
}

TEST(FleetDifferential, MixIdentityChangesTheCheckpointFingerprint) {
  // A checkpoint written under one mix must not resume a run of another:
  // the mix id rides in every scenario id, which the shard-plan
  // fingerprint covers.
  exp::ExperimentGrid global_grid(small_config());
  global_grid.governors({"ondemand"}).population(device::PopulationMix::named("global"));
  exp::ExperimentGrid premium_grid(small_config());
  premium_grid.governors({"ondemand"}).population(device::PopulationMix::named("premium"));
  EXPECT_NE(grid_fingerprint(global_grid.scenarios(), kSeeds, 2),
            grid_fingerprint(premium_grid.scenarios(), kSeeds, 2));
}

TEST(FleetDifferential, EmptyGridCompletesTrivially) {
  const FleetResult result = run_fleet(std::vector<exp::ScenarioSpec>{}, FleetOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.shard_count, 0u);
  EXPECT_EQ(result.digest_chain, 0u);
}

// ----------------------------------------------------------- kill/resume

TEST(FleetResume, KilledAtEveryShardBoundaryResumesBitIdentically) {
  const auto scenarios = small_grid();
  const Reference ref = serial_reference(scenarios, kSeeds);

  // Uninterrupted run with a spool: the byte-level reference for resume.
  const fs::path ref_dir = fresh_dir("resume_ref");
  const FleetResult whole = run_fleet(scenarios, checkpointed_opts(ref_dir, 1));
  expect_matches_reference(whole, ref);
  const std::string ref_spool = slurp(ref_dir / "spool.csv");
  ASSERT_FALSE(ref_spool.empty());

  const std::size_t shard_count = whole.shard_count;
  ASSERT_EQ(shard_count, scenarios.size() * kSeeds.size());  // shard_size 1

  for (const std::size_t kill_at : {std::size_t{1}, std::size_t{4}, shard_count - 1}) {
    const fs::path dir = fresh_dir("resume_kill_" + std::to_string(kill_at));
    FleetOptions opts = checkpointed_opts(dir, 1);
    opts.on_progress = [kill_at](std::uint64_t done, std::uint64_t) { return done < kill_at; };
    const FleetResult killed = run_fleet(scenarios, opts);
    ASSERT_TRUE(killed.ok()) << killed.error;
    ASSERT_TRUE(killed.stopped);
    ASSERT_EQ(killed.shards_done, kill_at);

    FleetOptions resume = checkpointed_opts(dir, 1);
    resume.resume = true;
    const FleetResult resumed = run_fleet(scenarios, resume);
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    expect_matches_reference(resumed, ref);
    EXPECT_EQ(resumed.sessions_resumed, kill_at);
    EXPECT_EQ(resumed.sessions_run, shard_count - kill_at);
    // The spool is byte-identical to the uninterrupted run's.
    EXPECT_EQ(slurp(dir / "spool.csv"), ref_spool);
  }
}

TEST(FleetResume, SurvivesRepeatedKillsAndResumeAfterCompletion) {
  const auto scenarios = small_grid();
  const Reference ref = serial_reference(scenarios, kSeeds);
  const fs::path dir = fresh_dir("double_kill");

  FleetOptions first = checkpointed_opts(dir, 1);
  first.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 2; };
  ASSERT_TRUE(run_fleet(scenarios, first).stopped);

  FleetOptions second = checkpointed_opts(dir, 1);
  second.resume = true;
  second.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 7; };
  const FleetResult mid = run_fleet(scenarios, second);
  ASSERT_TRUE(mid.stopped);
  ASSERT_EQ(mid.shards_done, 7u);
  ASSERT_EQ(mid.sessions_resumed, 2u);

  FleetOptions third = checkpointed_opts(dir, 1);
  third.resume = true;
  expect_matches_reference(run_fleet(scenarios, third), ref);

  // Resuming a finished run re-runs nothing and returns the same answer.
  FleetOptions again = checkpointed_opts(dir, 1);
  again.resume = true;
  const FleetResult noop = run_fleet(scenarios, again);
  expect_matches_reference(noop, ref);
  EXPECT_EQ(noop.sessions_run, 0u);
  EXPECT_EQ(noop.sessions_resumed, scenarios.size() * kSeeds.size());
}

TEST(FleetResume, MissingManifestIsAFreshStart) {
  // A kill can land before the first checkpoint ever hits disk; --resume
  // must treat the empty directory as "start over", not an error.
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("fresh_start");
  FleetOptions opts = checkpointed_opts(dir, 4);
  opts.resume = true;
  const FleetResult result = run_fleet(scenarios, opts);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.sessions_resumed, 0u);
}

TEST(FleetResume, RefusesAManifestFromADifferentGrid) {
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("fingerprint");
  FleetOptions opts = checkpointed_opts(dir, 1);
  opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 3; };
  ASSERT_TRUE(run_fleet(scenarios, opts).stopped);

  FleetOptions other = checkpointed_opts(dir, 1);
  other.resume = true;
  other.seeds = {999, 998};  // different grid meaning
  const FleetResult refused = run_fleet(scenarios, other);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("fingerprint"), std::string::npos) << refused.error;
}

TEST(FleetResume, RefusesACorruptManifest) {
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("corrupt_resume");
  FleetOptions opts = checkpointed_opts(dir, 1);
  opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 3; };
  ASSERT_TRUE(run_fleet(scenarios, opts).stopped);

  // Flip one byte in the middle of the manifest.
  const fs::path manifest = dir / "manifest.ckpt";
  std::string bytes = slurp(manifest);
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << bytes;

  FleetOptions resume = checkpointed_opts(dir, 1);
  resume.resume = true;
  const FleetResult refused = run_fleet(scenarios, resume);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("corrupt"), std::string::npos) << refused.error;
}

TEST(FleetResume, RefusesAManifestWhoseTaskCountDisagreesWithItsShards) {
  // A well-formed manifest can still be inconsistent: the frontier task is
  // derived from shards_done, so a tasks_done that disagrees would resume
  // from the wrong task.
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("shape_resume");
  FleetOptions opts = checkpointed_opts(dir, 2);
  opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 2; };
  ASSERT_TRUE(run_fleet(scenarios, opts).stopped);

  const std::string manifest = (dir / "manifest.ckpt").string();
  CheckpointState state;
  std::string error;
  ASSERT_TRUE(read_checkpoint(manifest, &state, &error)) << error;
  ASSERT_EQ(state.tasks_done, 4u);
  state.tasks_done = 3;
  ASSERT_TRUE(write_checkpoint(manifest, state, &error)) << error;

  FleetOptions resume = checkpointed_opts(dir, 2);
  resume.resume = true;
  const FleetResult refused = run_fleet(scenarios, resume);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("shape"), std::string::npos) << refused.error;
}

// ------------------------------------------------- checkpoint round trip

/// A checkpoint state full of adversarial doubles: raw random bit patterns
/// (hitting -0.0, denormals, infinities and NaNs) and messages with every
/// awkward byte. The manifest must reproduce all of it bit-for-bit.
CheckpointState random_state(sim::Rng& rng) {
  CheckpointState cs;
  cs.fingerprint = rng.next_u64();
  cs.shards_done = rng.next_u64() % 1000;
  cs.tasks_done = cs.shards_done * 64;
  cs.digest_chain = rng.next_u64();
  cs.spool_offset = rng.next_u64() % (1ull << 40);
  cs.aggregates.resize(1 + rng.next_u64() % 4);
  for (exp::Aggregate& agg : cs.aggregates) {
    agg.runs = static_cast<int>(rng.next_u64() % 100);
    agg.all_finished = (rng.next_u64() & 1) != 0;
    for (const auto& m : exp::Aggregate::metrics()) {
      sim::OnlineStats::State st;
      st.n = rng.next_u64() % 1000;
      st.mean = std::bit_cast<double>(rng.next_u64());
      st.m2 = std::bit_cast<double>(rng.next_u64());
      st.min = std::bit_cast<double>(rng.next_u64());
      st.max = std::bit_cast<double>(rng.next_u64());
      agg.*m.member = sim::OnlineStats::from_state(st);
    }
  }
  cs.failures.push_back(
      CheckpointFailure{rng.next_u64(), rng.next_u64(),
                        "scenario 'x y' seed 7: \"quoted\"\nmulti line\tand null \0 byte"s});
  cs.failures.push_back(CheckpointFailure{1, 2, ""});  // empty message
  cs.quarantine_offset = rng.next_u64() % (1ull << 30);
  CheckpointQuarantine q;
  q.task_index = rng.next_u64();
  q.seed = rng.next_u64();
  q.attempts = 3;
  q.fates = "crash:SIGSEGV,hang:heartbeat-miss,exit:41";
  q.stderr_tail = "chaos: task 7 attempt 2 fate exit\nwith \0 and \"quotes\""s;
  q.last_trace_events = rng.next_u64();
  q.last_trace_digest = rng.next_u64();
  cs.quarantined.push_back(q);
  cs.quarantined.push_back(CheckpointQuarantine{});  // all-empty record
  return cs;
}

void expect_state_bits(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.shards_done, b.shards_done);
  EXPECT_EQ(a.tasks_done, b.tasks_done);
  EXPECT_EQ(a.digest_chain, b.digest_chain);
  EXPECT_EQ(a.spool_offset, b.spool_offset);
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    expect_agg_bits(a.aggregates[i], b.aggregates[i]);
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].task_index, b.failures[i].task_index);
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].message, b.failures[i].message);
  }
  EXPECT_EQ(a.quarantine_offset, b.quarantine_offset);
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
    EXPECT_EQ(a.quarantined[i].task_index, b.quarantined[i].task_index);
    EXPECT_EQ(a.quarantined[i].seed, b.quarantined[i].seed);
    EXPECT_EQ(a.quarantined[i].attempts, b.quarantined[i].attempts);
    EXPECT_EQ(a.quarantined[i].fates, b.quarantined[i].fates);
    EXPECT_EQ(a.quarantined[i].stderr_tail, b.quarantined[i].stderr_tail);
    EXPECT_EQ(a.quarantined[i].last_trace_events, b.quarantined[i].last_trace_events);
    EXPECT_EQ(a.quarantined[i].last_trace_digest, b.quarantined[i].last_trace_digest);
  }
}

// The manifest, the supervisor wire and tune-state.ckpt all read integers
// through sim::parse_u64: 2^64 - 1 is the last accepted value, and anything
// larger is refused rather than wrapped.
TEST(TextIo, ParseU64RefusesOverflowInsteadOfWrapping) {
  using sim::parse_u64;
  std::uint64_t v = 0;
  ASSERT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);

  v = 7;
  for (const char* bad : {"18446744073709551616", "99999999999999999999",
                          "184467440737095516150", "1000000000000000000000000000000000000000"}) {
    EXPECT_FALSE(parse_u64(bad, &v)) << bad;
  }
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3"}) {
    EXPECT_FALSE(parse_u64(bad, &v)) << '"' << bad << '"';
  }
  EXPECT_EQ(v, 7u);  // a refused value leaves the output untouched
}

TEST(Checkpoint, RoundTripIsBitExactForAdversarialDoubles) {
  const fs::path dir = fresh_dir("roundtrip");
  sim::Rng rng(0xF1EE7);
  for (int iter = 0; iter < 20; ++iter) {
    const CheckpointState original = random_state(rng);
    const std::string path = (dir / "manifest.ckpt").string();
    std::string error;
    ASSERT_TRUE(write_checkpoint(path, original, &error)) << error;
    CheckpointState loaded;
    ASSERT_TRUE(read_checkpoint(path, &loaded, &error)) << error;
    expect_state_bits(original, loaded);

    // Special values explicitly, on top of the random sweep.
    CheckpointState special = original;
    sim::OnlineStats::State st;
    st.n = 3;
    st.mean = -0.0;
    st.m2 = 5e-324;  // smallest denormal
    st.min = -std::numeric_limits<double>::infinity();
    st.max = std::numeric_limits<double>::max();
    special.aggregates[0].cpu_mj = sim::OnlineStats::from_state(st);
    ASSERT_TRUE(write_checkpoint(path, special, &error)) << error;
    ASSERT_TRUE(read_checkpoint(path, &loaded, &error)) << error;
    expect_state_bits(special, loaded);
  }
}

TEST(Checkpoint, RejectsTruncationCorruptionAndTrailingGarbage) {
  const fs::path dir = fresh_dir("reject");
  sim::Rng rng(0xBAD);
  const CheckpointState state = random_state(rng);
  const fs::path path = dir / "manifest.ckpt";
  std::string error;
  ASSERT_TRUE(write_checkpoint(path.string(), state, &error)) << error;
  const std::string good = slurp(path);

  const auto rejects = [&](const std::string& bytes, const char* needle) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    CheckpointState loaded;
    std::string why;
    EXPECT_FALSE(read_checkpoint(path.string(), &loaded, &why));
    EXPECT_NE(why.find(needle), std::string::npos) << "got: " << why;
  };

  // Truncation at many points: empty, mid-file, one byte short.
  rejects("", "truncated");
  rejects(good.substr(0, good.size() / 3), "truncated");
  rejects(good.substr(0, good.size() - 1), "truncated");
  rejects(good.substr(0, good.size() - 18), "truncated");  // inside the end line

  // Single-bit corruption anywhere fails the checksum.
  for (const std::size_t at : {std::size_t{0}, good.size() / 2, good.size() - 3}) {
    std::string flipped = good;
    flipped[at] ^= 0x10;
    rejects(flipped, at == good.size() - 3 ? "truncated" : "corrupt");
  }

  // Bytes appended after the end line are not silently ignored.
  rejects(good + "extra line\n", "truncated");

  // A wrong schema number (with its checksum "fixed" by rewriting the
  // whole file through the writer) still reads back — so corrupt the
  // schema digit in place instead: the checksum catches it.
  std::string reschema = good;
  const std::size_t schema_at = reschema.find("checkpoint 2") + std::string("checkpoint ").size();
  reschema[schema_at] = '9';
  rejects(reschema, "corrupt");

  // The pristine bytes still parse after all that.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << good;
  CheckpointState loaded;
  ASSERT_TRUE(read_checkpoint(path.string(), &loaded, &error)) << error;
}

// Correctly sealed manifests whose counts, ranges or record order are
// hostile: each is refused with its "bad ... line" message. A count is
// never an allocation size, and a run count must fit the aggregate's int.
TEST(Checkpoint, RefusesHostileCountsRangesAndOrder) {
  const fs::path dir = fresh_dir("hostile");
  const std::string path = (dir / "manifest.ckpt").string();
  sim::Rng rng(0x405711E);
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, random_state(rng), &error)) << error;
  std::string body;
  ASSERT_TRUE(read_sealed(path, "checkpoint", &body, &error)) << error;

  // `body` with the first line that starts with `prefix` replaced.
  const auto with_line = [&body](const std::string& prefix, const std::string& line) {
    std::string out = body;
    const std::size_t at = out.find("\n" + prefix) + 1;
    EXPECT_GT(at, 0u) << prefix;
    return out.replace(at, out.find('\n', at) - at, line);
  };
  const auto read_resealed = [&](const std::string& hostile, CheckpointState* loaded) {
    EXPECT_TRUE(write_sealed(path, hostile, "checkpoint", "manifest", &error)) << error;
    error.clear();
    return read_checkpoint(path, loaded, &error);
  };
  const auto refused = [&](const std::string& hostile, const std::string& needle) {
    CheckpointState loaded;
    EXPECT_FALSE(read_resealed(hostile, &loaded));
    EXPECT_NE(error.find(needle), std::string::npos) << "got: " << error;
  };

  refused(with_line("scenarios ", "scenarios 18446744073709551615"), "bad scenario line");
  refused(with_line("failures ", "failures 1152921504606846975"), "bad failure line 2");
  refused(with_line("quarantined ", "quarantined 1152921504606846975"), "bad quarantine line 2");
  refused(with_line("scenario 0 ", "scenario 0 runs 4294967299 finished 1"), "bad scenario line 0");
  refused(with_line("scenario 0 ", "scenario 0 runs 2147483648 finished 1"), "bad scenario line 0");
  refused(with_line("scenario 0 ", "scenario 0 runs 5 finished 2"), "bad scenario line 0");
  refused(with_line("scenario 0 ", "scenario 1 runs 5 finished 1"), "bad scenario line 0");

  // Metric lines 0 and 1 of scenario 0 swapped.
  const std::size_t m0 = body.find("\nm 0 ") + 1;
  const std::size_t m1 = body.find("\nm 1 ") + 1;
  std::string swapped = body;
  const std::string line0 = body.substr(m0, m1 - m0);
  const std::string line1 = body.substr(m1, body.find('\n', m1) + 1 - m1);
  swapped.replace(m0, line0.size() + line1.size(), line1 + line0);
  refused(swapped, "bad metric line 0 in scenario 0");

  // The largest run count an aggregate holds still reads back.
  CheckpointState loaded;
  ASSERT_TRUE(read_resealed(with_line("scenario 0 ", "scenario 0 runs 2147483647 finished 1"),
                            &loaded))
      << error;
  EXPECT_EQ(loaded.aggregates[0].runs, std::numeric_limits<int>::max());
}

// ------------------------------------------------------- merge algebra

std::vector<core::SessionResult> sample_results() {
  std::vector<core::SessionResult> results;
  for (const char* governor : {"ondemand", "vafs"}) {
    core::SessionConfig config = small_config();
    config.governor = governor;
    for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
      config.seed = seed;
      results.push_back(core::run_session(config));
    }
  }
  return results;
}

exp::Aggregate fold(const std::vector<core::SessionResult>& results,
                    const std::vector<std::size_t>& order) {
  exp::Aggregate agg;
  for (const std::size_t i : order) agg.add(results[i]);
  return agg;
}

void expect_agg_near(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  for (const auto& m : exp::Aggregate::metrics()) {
    const sim::OnlineStats& x = a.*m.member;
    const sim::OnlineStats& y = b.*m.member;
    // Count, min and max are order-exact; mean and variance merge via
    // Chan's formula, exact only up to FP rounding.
    EXPECT_EQ(x.count(), y.count()) << m.name;
    EXPECT_EQ(x.min(), y.min()) << m.name;
    EXPECT_EQ(x.max(), y.max()) << m.name;
    EXPECT_NEAR(x.mean(), y.mean(), 1e-9 * (1.0 + std::abs(y.mean()))) << m.name;
    EXPECT_NEAR(x.stddev(), y.stddev(), 1e-6 * (1.0 + y.stddev())) << m.name;
  }
}

TEST(AggregateAlgebra, EmptyAggregateIsAnExactIdentity) {
  const auto results = sample_results();
  std::vector<std::size_t> all(results.size());
  std::iota(all.begin(), all.end(), 0u);
  const exp::Aggregate reference = fold(results, all);

  exp::Aggregate left_identity;  // empty.merge(a) == a, bit for bit
  left_identity.merge(reference);
  expect_agg_bits(left_identity, reference);

  exp::Aggregate right_identity = reference;  // a.merge(empty) == a
  right_identity.merge(exp::Aggregate{});
  expect_agg_bits(right_identity, reference);
}

TEST(AggregateAlgebra, MergeIsCommutativeAndAssociativeUpToRounding) {
  const auto results = sample_results();
  sim::Rng rng(0xA16EB7A);

  for (int iter = 0; iter < 25; ++iter) {
    // Random 3-way partition of the sample set.
    std::vector<std::vector<std::size_t>> parts(3);
    for (std::size_t i = 0; i < results.size(); ++i) {
      parts[rng.next_u64() % 3].push_back(i);
    }
    const exp::Aggregate a = fold(results, parts[0]);
    const exp::Aggregate b = fold(results, parts[1]);
    const exp::Aggregate c = fold(results, parts[2]);

    exp::Aggregate ab = a;
    ab.merge(b);
    exp::Aggregate ba = b;
    ba.merge(a);
    expect_agg_near(ab, ba);  // commutative

    exp::Aggregate ab_c = ab;
    ab_c.merge(c);
    exp::Aggregate bc = b;
    bc.merge(c);
    exp::Aggregate a_bc = a;
    a_bc.merge(bc);
    expect_agg_near(ab_c, a_bc);  // associative

    // And any partition order agrees with the straight sequential fold.
    std::vector<std::size_t> all(results.size());
    std::iota(all.begin(), all.end(), 0u);
    expect_agg_near(ab_c, fold(results, all));
  }
}

// --------------------------------------------------------------- spool

TEST(Spool, JsonlRowsCarryTheSchema) {
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("jsonl");
  FleetOptions opts;
  opts.jobs = 2;
  opts.seeds = {101, 202};
  opts.shard_size = 3;
  opts.checkpoint_dir = dir.string();
  opts.spool.format = SpoolFormat::kJsonl;
  const FleetResult result = run_fleet(scenarios, opts);
  ASSERT_TRUE(result.complete()) << result.error;

  const std::string text = slurp(dir / "spool.jsonl");
  std::istringstream lines(text);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"scenario\":\"governor=", 0), 0u) << line;
    EXPECT_NE(line.find("\"metrics\":{\"total_mj\":"), std::string::npos) << line;
    ++rows;
  }
  EXPECT_EQ(rows, scenarios.size() * opts.seeds.size());  // one object per session
}

// ------------------------------------------------- durable-write injection

/// A checkpoint write that dies at *every* possible write boundary — a
/// short write then ENOSPC after k bytes, for each k — must refuse
/// cleanly and leave the previously published manifest untouched.
TEST(Checkpoint, FailedWriteAtEveryBoundaryLeavesTheOldManifestIntact) {
  const fs::path dir = fresh_dir("enospc");
  const std::string path = (dir / "manifest.ckpt").string();
  sim::Rng rng(0x51C);
  const CheckpointState old_state = random_state(rng);
  CheckpointState new_state = random_state(rng);
  new_state.shards_done = old_state.shards_done + 1;
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, old_state, &error)) << error;
  const std::string old_bytes = slurp(dir / "manifest.ckpt");

  // Upper bound on the new manifest's size: a full write against a
  // throwaway path (the injection below counts bytes against it).
  ASSERT_TRUE(write_checkpoint((dir / "probe.ckpt").string(), new_state, &error)) << error;
  const std::size_t body_size = slurp(dir / "probe.ckpt").size();
  ASSERT_GT(body_size, 0u);

  // Exhaustive up to 64 boundaries, then strided: every offset class
  // (first byte, mid-line, line boundary, last byte) gets hit.
  for (std::size_t allowed = 0; allowed < body_size;
       allowed += (body_size < 64 ? 1 : body_size / 64)) {
    IoHooks::write_gate = [allowed](std::size_t) { return allowed; };
    error.clear();
    EXPECT_FALSE(write_checkpoint(path, new_state, &error));
    IoHooks::reset();
    EXPECT_NE(error.find("manifest left untouched"), std::string::npos) << error;
    EXPECT_EQ(slurp(dir / "manifest.ckpt"), old_bytes) << "allowed=" << allowed;
    EXPECT_FALSE(fs::exists(dir / "manifest.ckpt.tmp"));  // no litter
    CheckpointState loaded;
    ASSERT_TRUE(read_checkpoint(path, &loaded, &error)) << error;
    expect_state_bits(old_state, loaded);
  }

  // A failing fsync refuses the same way: durability cannot be assumed.
  IoHooks::fsync_gate = [] { return false; };
  error.clear();
  EXPECT_FALSE(write_checkpoint(path, new_state, &error));
  IoHooks::reset();
  EXPECT_NE(error.find("manifest left untouched"), std::string::npos) << error;
  EXPECT_EQ(slurp(dir / "manifest.ckpt"), old_bytes);

  // With the gates lifted the same write goes through.
  ASSERT_TRUE(write_checkpoint(path, new_state, &error)) << error;
  CheckpointState loaded;
  ASSERT_TRUE(read_checkpoint(path, &loaded, &error)) << error;
  expect_state_bits(new_state, loaded);
}

TEST(Spool, ShortWriteSurfacesAsACleanError) {
  const fs::path dir = fresh_dir("spool_enospc");
  Spool spool;
  SpoolOptions options;
  options.format = SpoolFormat::kCsv;
  options.path = (dir / "spool.csv").string();
  std::string error;
  ASSERT_TRUE(spool.open(options, 0, &error)) << error;

  const auto scenarios = small_grid();
  core::SessionConfig config = scenarios[0].config;
  config.seed = 101;
  core::SessionArena arena;
  const core::SessionResult result = core::run_session(config, {}, &arena);

  // The header + first rows fit the staging buffer; the gated flush
  // accepts only 7 bytes and then reports ENOSPC.
  double values[exp::kMetricCount];
  exp::Aggregate::session_values(result, values);
  spool.append_values(scenarios[0], 101, values, result.trace_digest);
  IoHooks::write_gate = [](std::size_t) { return std::size_t{7}; };
  error.clear();
  EXPECT_FALSE(spool.flush(&error));
  IoHooks::reset();
  EXPECT_NE(error.find("short write"), std::string::npos) << error;
  EXPECT_NE(error.find("disk full"), std::string::npos) << error;

  // The spool latches the failure: later closes keep reporting it
  // instead of silently pretending the rows landed.
  EXPECT_FALSE(spool.close(&error));
}

TEST(Fleet, ManifestWriteFailureAbortsTheRunWithContext) {
  const auto scenarios = small_grid();
  const fs::path dir = fresh_dir("fleet_enospc");
  FleetOptions opts;
  opts.seeds = {101, 202};
  opts.shard_size = 1;
  opts.checkpoint_dir = dir.string();
  opts.checkpoint_every_shards = 1;

  IoHooks::write_gate = [](std::size_t) { return std::size_t{16}; };
  const FleetResult result = run_fleet(scenarios, opts);
  IoHooks::reset();
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("manifest left untouched"), std::string::npos) << result.error;
}

// ------------------------------------------------- cooperative timeout

TEST(Fleet, GenerousTaskTimeoutChangesNothing) {
  const auto scenarios = small_grid();
  FleetOptions opts;
  opts.seeds = {101, 202};
  opts.shard_size = 2;
  const FleetResult plain = run_fleet(scenarios, opts);
  ASSERT_TRUE(plain.complete());
  ASSERT_TRUE(plain.failures.empty());

  opts.task_timeout_ms = 60 * 1000;
  const FleetResult timed = run_fleet(scenarios, opts);
  ASSERT_TRUE(timed.complete());
  EXPECT_TRUE(timed.failures.empty());
  // The deadline check must not perturb the simulation: same digests.
  EXPECT_EQ(timed.digest_chain, plain.digest_chain);
}

TEST(Spool, CsvIsDeterministicAcrossJobCounts) {
  const auto scenarios = small_grid();
  std::string first;
  for (const int jobs : {1, 4}) {
    const fs::path dir = fresh_dir("csv_jobs_" + std::to_string(jobs));
    FleetOptions opts;
    opts.jobs = jobs;
    opts.seeds = {101, 202};
    opts.shard_size = 1;
    opts.checkpoint_dir = dir.string();
    opts.spool.format = SpoolFormat::kCsv;
    ASSERT_TRUE(run_fleet(scenarios, opts).complete());
    const std::string text = slurp(dir / "spool.csv");
    EXPECT_EQ(text.rfind("scenario,seed,metric,value\n", 0), 0u);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

}  // namespace
}  // namespace vafs::fleet
