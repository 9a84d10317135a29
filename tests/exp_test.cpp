// Tests for the experiment engine (src/exp): grid expansion, CLI parsing,
// aggregate dispersion and merge, JSON emission — and the two properties
// the parallel runner rests on: run_session is deterministic for a fixed
// (config, seed), and a parallel grid run is bit-identical to a serial
// one.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/session_instance.h"
#include "exp/aggregate.h"
#include "exp/grid.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/runner.h"
#include "exp/sinks.h"
#include "fault/plan.h"
#include "obs/trace.h"

namespace vafs::exp {
namespace {

core::SessionConfig small_config() {
  core::SessionConfig config;
  config.media_duration = sim::SimTime::seconds(20);
  config.net = core::NetProfile::kFair;
  config.fixed_rep = 2;
  return config;
}

/// Bitwise equality across every scalar field the aggregates and tables
/// consume; catches any nondeterminism, not just "close enough" drift.
void expect_identical(const core::SessionResult& a, const core::SessionResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.energy.cpu_mj, b.energy.cpu_mj);
  EXPECT_EQ(a.energy.radio_mj, b.energy.radio_mj);
  EXPECT_EQ(a.energy.display_mj, b.energy.display_mj);
  EXPECT_EQ(a.qoe.startup_delay, b.qoe.startup_delay);
  EXPECT_EQ(a.qoe.rebuffer_events, b.qoe.rebuffer_events);
  EXPECT_EQ(a.qoe.rebuffer_time, b.qoe.rebuffer_time);
  EXPECT_EQ(a.qoe.frames_presented, b.qoe.frames_presented);
  EXPECT_EQ(a.qoe.frames_dropped, b.qoe.frames_dropped);
  EXPECT_EQ(a.qoe.deadline_misses, b.qoe.deadline_misses);
  EXPECT_EQ(a.qoe.quality_switches, b.qoe.quality_switches);
  EXPECT_EQ(a.qoe.mean_bitrate_kbps, b.qoe.mean_bitrate_kbps);
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.played, b.played);
  EXPECT_EQ(a.live_latency, b.live_latency);
  EXPECT_EQ(a.freq_transitions, b.freq_transitions);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.radio_promotions, b.radio_promotions);
  EXPECT_EQ(a.vafs_decode_mape, b.vafs_decode_mape);
  EXPECT_EQ(a.vafs_plans, b.vafs_plans);
  EXPECT_EQ(a.vafs_setspeed_writes, b.vafs_setspeed_writes);
  ASSERT_EQ(a.residency.size(), b.residency.size());
  for (std::size_t i = 0; i < a.residency.size(); ++i) {
    EXPECT_EQ(a.residency[i].first, b.residency[i].first);
    EXPECT_EQ(a.residency[i].second, b.residency[i].second);
  }
}

TEST(SessionDeterminism, SameConfigAndSeedIsBitIdentical) {
  for (const char* governor : {"ondemand", "vafs"}) {
    core::SessionConfig config = small_config();
    config.governor = governor;
    config.seed = 12345;
    const core::SessionResult first = core::run_session(config);
    const core::SessionResult second = core::run_session(config);
    ASSERT_TRUE(first.finished);
    expect_identical(first, second);
  }
}

TEST(SessionDeterminism, InterleavedInstancesMatchRunSession) {
  // Stepping several SessionInstances alternately on one thread, as
  // bench_s1_serving does to hold many decision streams open, must give
  // each session exactly its run_session result: sessions share nothing.
  std::vector<core::SessionConfig> configs(3, small_config());
  configs[1].governor = "vafs";
  configs[2].fault = fault::FaultPlanConfig::mild();

  std::vector<core::SessionResult> alone;
  for (const core::SessionConfig& config : configs) {
    obs::Tracer tracer{obs::Tracer::Config{0}};
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    alone.push_back(core::run_session(config, hooks));
  }
  ASSERT_GT(alone[1].vafs_plans, 0u);
  ASSERT_GT(alone[2].fault_windows, 0u);

  std::deque<obs::Tracer> tracers;  // pinned: each instance keeps a pointer
  std::vector<std::unique_ptr<core::SessionInstance>> instances;
  for (const core::SessionConfig& config : configs) {
    core::SessionHooks hooks;
    hooks.tracer = &tracers.emplace_back(obs::Tracer::Config{0});
    instances.push_back(std::make_unique<core::SessionInstance>(config, hooks, nullptr));
  }
  std::vector<bool> live(instances.size(), true);
  for (std::size_t left = instances.size(); left > 0;) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (live[i] && !instances[i]->step_one()) {
        live[i] = false;
        --left;
      }
    }
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const core::SessionResult interleaved = instances[i]->finish();
    expect_identical(alone[i], interleaved);
    EXPECT_EQ(alone[i].sim_events, interleaved.sim_events);
    EXPECT_EQ(alone[i].trace_digest, interleaved.trace_digest);
    EXPECT_EQ(alone[i].trace_events, interleaved.trace_events);
  }
}

TEST(SessionDeterminism, DifferentSeedsDiffer) {
  core::SessionConfig config = small_config();
  config.seed = 1;
  const core::SessionResult a = core::run_session(config);
  config.seed = 2;
  const core::SessionResult b = core::run_session(config);
  EXPECT_NE(a.energy.cpu_mj, b.energy.cpu_mj);
}

TEST(Grid, CartesianProductLastAxisFastest) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"}).reps({{0, "360p"}, {2, "720p"}});
  const auto scenarios = grid.scenarios();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].id, "governor=ondemand rep=360p");
  EXPECT_EQ(scenarios[1].id, "governor=ondemand rep=720p");
  EXPECT_EQ(scenarios[2].id, "governor=vafs rep=360p");
  EXPECT_EQ(scenarios[3].id, "governor=vafs rep=720p");
  EXPECT_EQ(scenarios[3].config.governor, "vafs");
  EXPECT_EQ(scenarios[3].config.fixed_rep, 2u);
  ASSERT_NE(scenarios[2].label("rep"), nullptr);
  EXPECT_EQ(*scenarios[2].label("rep"), "360p");
  EXPECT_EQ(scenarios[2].label("nope"), nullptr);
}

TEST(Grid, EmptyGridIsSingleBaseScenario) {
  core::SessionConfig base = small_config();
  base.governor = "schedutil";
  const auto scenarios = ExperimentGrid(base).scenarios();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].id, "base");
  EXPECT_EQ(scenarios[0].config.governor, "schedutil");
}

TEST(Runner, ParallelMatchesSerialBitIdentically) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "schedutil", "vafs"}).reps({{0, "360p"}, {2, "720p"}});

  RunOptions serial;
  serial.jobs = 1;
  serial.seeds = {101, 202};
  RunOptions parallel = serial;
  parallel.jobs = 4;

  const ResultSet s = run_grid(grid, serial);
  const ResultSet p = run_grid(grid, parallel);

  ASSERT_EQ(s.all().size(), p.all().size());
  for (std::size_t i = 0; i < s.all().size(); ++i) {
    const ScenarioResult& ss = s.all()[i];
    const ScenarioResult& pp = p.all()[i];
    EXPECT_EQ(ss.spec.id, pp.spec.id);
    ASSERT_EQ(ss.runs.size(), pp.runs.size());
    for (std::size_t r = 0; r < ss.runs.size(); ++r) expect_identical(ss.runs[r], pp.runs[r]);
    // Aggregation happens serially in both cases, so it matches bitwise too.
    EXPECT_EQ(ss.agg.cpu_mj.mean(), pp.agg.cpu_mj.mean());
    EXPECT_EQ(ss.agg.cpu_mj.stddev(), pp.agg.cpu_mj.stddev());
    EXPECT_EQ(ss.agg.runs, pp.agg.runs);
  }
}

TEST(Runner, ArenaSharedContentStoreIsExact) {
  // An arena shares synthesized content between sessions with the same
  // (seed, content, duration) workload. A session run against a store
  // pre-warmed by a *different governor's* session must be bit-identical
  // to one run with no arena at all — the memo is pure, not stateful.
  core::SessionConfig config = small_config();
  config.governor = "ondemand";
  const core::SessionResult bare = core::run_session(config);

  core::SessionArena arena;
  core::SessionConfig warmup = config;
  warmup.governor = "schedutil";
  core::run_session(warmup, {}, &arena);  // fills the shared store
  const core::SessionResult warmed = core::run_session(config, {}, &arena);
  expect_identical(bare, warmed);

  // A different seed is a different workload: it must get its own store,
  // not collide with the warm one.
  core::SessionConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  const core::SessionResult bare2 = core::run_session(reseeded);
  const core::SessionResult warmed2 = core::run_session(reseeded, {}, &arena);
  expect_identical(bare2, warmed2);
}

TEST(Runner, ResultSetLookupAndAggregates) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  RunOptions opts;
  opts.jobs = 2;
  opts.seeds = {101, 202, 303};
  const ResultSet results = run_grid(grid, opts);

  const ScenarioResult& vafs = results.at({{"governor", "vafs"}});
  EXPECT_EQ(vafs.agg.runs, 3);
  EXPECT_TRUE(vafs.agg.all_finished);
  EXPECT_EQ(vafs.runs.size(), 3u);
  EXPECT_EQ(vafs.seeds, opts.seeds);
  // min <= mean <= max, and dispersion over distinct seeds is nonzero.
  EXPECT_LE(vafs.agg.cpu_mj.min(), vafs.agg.cpu_mj.mean());
  EXPECT_LE(vafs.agg.cpu_mj.mean(), vafs.agg.cpu_mj.max());
  EXPECT_GT(vafs.agg.cpu_mj.stddev(), 0.0);
  // The VAFS headline holds in the small grid too.
  const ScenarioResult& ondemand = results.at({{"governor", "ondemand"}});
  EXPECT_LT(vafs.agg.cpu_mj.mean(), ondemand.agg.cpu_mj.mean());
}

TEST(Runner, HookFactoryFiresPerTask) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  RunOptions opts;
  opts.jobs = 3;
  opts.seeds = {101, 202};
  std::vector<int> fired(4, 0);
  opts.hooks = [&fired](const ScenarioSpec&, std::size_t scenario_index,
                        std::size_t seed_index) {
    core::SessionHooks hooks;
    int* slot = &fired[scenario_index * 2 + seed_index];
    hooks.on_ready = [slot](core::SessionLive& live) {
      ASSERT_NE(live.sim, nullptr);
      ++*slot;
    };
    return hooks;
  };
  run_grid(grid, opts);
  for (const int count : fired) EXPECT_EQ(count, 1);
}

TEST(Aggregate, MergeMatchesSequential) {
  core::SessionConfig config = small_config();
  std::vector<core::SessionResult> results;
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    config.seed = seed;
    results.push_back(core::run_session(config));
  }

  Aggregate whole;
  for (const auto& r : results) whole.add(r);

  Aggregate left, right;
  left.add(results[0]);
  left.add(results[1]);
  right.add(results[2]);
  right.add(results[3]);
  left.merge(right);

  EXPECT_EQ(left.runs, whole.runs);
  EXPECT_EQ(left.all_finished, whole.all_finished);
  for (const auto& m : Aggregate::metrics()) {
    const sim::OnlineStats& merged = left.*(m.member);
    const sim::OnlineStats& direct = whole.*(m.member);
    EXPECT_EQ(merged.count(), direct.count()) << m.name;
    EXPECT_EQ(merged.min(), direct.min()) << m.name;
    EXPECT_EQ(merged.max(), direct.max()) << m.name;
    EXPECT_NEAR(merged.mean(), direct.mean(), 1e-9 * (1.0 + std::abs(direct.mean())))
        << m.name;
    EXPECT_NEAR(merged.stddev(), direct.stddev(), 1e-6 * (1.0 + direct.stddev())) << m.name;
  }
}

TEST(Aggregate, MetricTableCoversKnownFields) {
  // A change to the metric list shows up here on purpose: the JSON/CSV
  // schema is part of the bench contract.
  const auto& metrics = Aggregate::metrics();
  EXPECT_EQ(metrics.size(), 35u);
  EXPECT_STREQ(metrics.front().name, "cpu_mj");
}

TEST(Options, ParsesAllFlags) {
  const char* argv[] = {"bench", "--jobs", "8", "--seeds=1,2,3", "--quick",
                        "--out-json", "x.json", "--out-csv=none"};
  BenchOptions options;
  std::string error;
  ASSERT_TRUE(parse_bench_args(8, const_cast<char**>(argv), &options, &error)) << error;
  EXPECT_EQ(options.jobs, 8);
  EXPECT_EQ(options.effective_jobs(), 8);
  EXPECT_EQ(options.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(options.quick);
  EXPECT_EQ(options.effective_seeds(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(options.out_json, "x.json");
  EXPECT_EQ(options.out_csv, "none");
}

TEST(Options, RejectsBadInput) {
  BenchOptions options;
  std::string error;
  {
    const char* argv[] = {"bench", "--jobs", "0"};
    EXPECT_FALSE(parse_bench_args(3, const_cast<char**>(argv), &options, &error));
  }
  {
    const char* argv[] = {"bench", "--seeds", "1,,2"};
    EXPECT_FALSE(parse_bench_args(3, const_cast<char**>(argv), &options, &error));
  }
  {
    const char* argv[] = {"bench", "--frobnicate"};
    EXPECT_FALSE(parse_bench_args(2, const_cast<char**>(argv), &options, &error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
  }
  {
    const char* argv[] = {"bench", "--out-json"};
    EXPECT_FALSE(parse_bench_args(2, const_cast<char**>(argv), &options, &error));
  }
}

TEST(Options, DefaultsAreSuiteDefaults) {
  BenchOptions options;
  EXPECT_EQ(options.seeds, (std::vector<std::uint64_t>{101, 202, 303}));
  EXPECT_FALSE(options.quick);
  EXPECT_GE(options.effective_jobs(), 1);
}

TEST(Json, StructureAndEscaping) {
  Json root = Json::object();
  root.set("name", "a \"quoted\"\nvalue");
  root.set("count", 3);
  root.set("ratio", 0.25);
  root.set("flag", true);
  Json list = Json::array();
  list.push(1).push(Json());
  root.set("list", std::move(list));

  const std::string compact = root.dump(0);
  EXPECT_EQ(compact,
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\",\"count\":3,\"ratio\":0.25,"
            "\"flag\":true,\"list\":[1,null]}");
  // Non-finite numbers degrade to null rather than emitting invalid JSON.
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "null");
  EXPECT_EQ(json_number(0.1), "0.1");
}

TEST(Json, ParseRoundTripsWriterOutput) {
  Json root = Json::object();
  root.set("name", "a \"quoted\"\nvalue \t with\\escapes");
  root.set("count", 3);
  root.set("ratio", -0.25);
  root.set("big", 1.5e300);
  root.set("flag", true);
  root.set("nothing", Json());
  Json list = Json::array();
  list.push(1).push(Json()).push("x").push(Json::array()).push(Json::object());
  root.set("list", std::move(list));
  Json nested = Json::object();
  nested.set("inner", 7);
  root.set("nested", std::move(nested));

  // Both renderings (indented and compact) parse back to a tree that
  // re-renders byte-identically — the loader sees exactly what the
  // writer meant, member order included.
  for (const int indent : {0, 2}) {
    Json parsed;
    std::string error;
    ASSERT_TRUE(json_parse(root.dump(indent), &parsed, &error)) << error;
    EXPECT_EQ(parsed.dump(indent), root.dump(indent));
  }
}

TEST(Json, ParseAccessorsAndEscapes) {
  Json v;
  std::string error;
  ASSERT_TRUE(json_parse(R"({"s": "a\u0041\n/", "n": -1.5e2, "b": false, "a": [1, 2]})", &v,
                         &error))
      << error;
  ASSERT_EQ(v.kind(), Json::Kind::kObject);
  EXPECT_EQ(v.find("s")->str(), "aA\n/");
  EXPECT_EQ(v.find("n")->number(), -150.0);
  EXPECT_FALSE(v.find("b")->boolean());
  ASSERT_EQ(v.find("a")->items().size(), 2u);
  EXPECT_EQ(v.find("a")->items()[1].number(), 2.0);
  // Duplicate keys keep the last value, matching Json::set.
  ASSERT_TRUE(json_parse(R"({"k": 1, "k": 2})", &v, &error));
  EXPECT_EQ(v.find("k")->number(), 2.0);
}

TEST(Json, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",                 // no value
      "{",                // unterminated object
      "[1, 2",            // unterminated array
      "[1, ]",            // trailing comma
      "{\"k\" 1}",        // missing colon
      "{k: 1}",           // unquoted key
      "\"\\q\"",          // unknown escape
      "\"\\u12g4\"",      // bad hex digit
      "01",               // leading zero
      "1.",               // bare fraction dot
      "1e",               // bare exponent
      "nul",              // truncated literal
      "true false",       // trailing garbage
      "\"unterminated",   // unterminated string
      "\x01",             // control character
  };
  for (const char* text : bad) {
    Json v;
    std::string error;
    EXPECT_FALSE(json_parse(text, &v, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
  // Pathological nesting is rejected, not stack-overflowed.
  std::string deep(500, '[');
  deep += std::string(500, ']');
  Json v;
  std::string error;
  EXPECT_FALSE(json_parse(deep, &v, &error));
}

TEST(Sinks, ReportJsonAndCsvCoverEveryScenario) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  RunOptions run_options;
  run_options.jobs = 2;
  run_options.seeds = {101, 202};
  std::vector<Section> sections;
  sections.push_back(Section{"main", run_grid(grid, run_options)});

  BenchOptions options;
  options.jobs = 2;
  options.seeds = {101, 202};
  const Json report = bench_report_json("t1", "title", options, sections);
  const std::string text = report.dump();
  EXPECT_NE(text.find("\"bench\": \"t1\""), std::string::npos);
  EXPECT_NE(text.find("governor=vafs"), std::string::npos);
  EXPECT_NE(text.find("\"cpu_mj\""), std::string::npos);
  EXPECT_NE(text.find("\"stddev\""), std::string::npos);

  std::ostringstream csv;
  write_bench_csv(csv, sections);
  const std::string csv_text = csv.str();
  // Header + 2 scenarios x all metrics.
  std::size_t lines = 0;
  for (const char c : csv_text) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 2u * Aggregate::metrics().size());
  EXPECT_EQ(csv_text.rfind("section,scenario,metric,mean,stddev,min,max,q50,q95,runs", 0), 0u);
}

// ------------------------------------------- CSV quantile-guard columns

namespace {

/// Parses one CSV line on commas (the bench CSV never quotes: section,
/// scenario and metric names are comma-free by construction).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t comma = line.find(',', start);
    out.push_back(line.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

TEST(Sinks, CsvQuantileGuardsRoundTrip) {
  // The guard quantiles folded into the CSV must (a) keep the header
  // ordering aligned with Aggregate::metrics() declaration order, and
  // (b) equal an independent nearest-rank recomputation from the per-seed
  // session values — the round trip the plotting tools depend on.
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  RunOptions run_options;
  run_options.jobs = 2;
  run_options.seeds = {101, 202, 303, 404, 505};
  run_options.trace = true;  // digest pseudo-rows must carry the new shape
  std::vector<Section> sections;
  sections.push_back(Section{"main", run_grid(grid, run_options)});

  std::ostringstream csv;
  write_bench_csv(csv, sections);
  std::istringstream lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "section,scenario,metric,mean,stddev,min,max,q50,q95,runs");

  const auto quantile = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    if (rank == 0) rank = 1;
    return v[std::min(rank, v.size()) - 1];
  };

  const auto& metrics = Aggregate::metrics();
  for (const auto& sr : sections[0].results.all()) {
    // One row per metric, in declaration order, before any pseudo-rows.
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      ASSERT_TRUE(std::getline(lines, line));
      const std::vector<std::string> cells = split_csv(line);
      ASSERT_EQ(cells.size(), 10u) << line;
      EXPECT_EQ(cells[1], sr.spec.id);
      EXPECT_EQ(cells[2], metrics[k].name);

      std::vector<double> column;
      double values[kMetricCount];
      for (const auto& run : sr.runs) {
        Aggregate::session_values(run, values);
        column.push_back(values[k]);
      }
      // The CSV renders doubles as %.6g (trace::CsvWriter); recompute and
      // render the same way so the comparison is exact, not approximate.
      const auto g6 = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return std::string(buf);
      };
      EXPECT_EQ(cells[7], g6(quantile(column, 0.50))) << line;
      EXPECT_EQ(cells[8], g6(quantile(column, 0.95))) << line;
    }
    // Skip this scenario's trace-digest pseudo-rows (one per seed); they
    // must carry the widened 10-cell shape too.
    for (std::size_t i = 0; i < sr.runs.size(); ++i) {
      ASSERT_TRUE(std::getline(lines, line));
      EXPECT_EQ(split_csv(line).size(), 10u) << line;
      EXPECT_EQ(split_csv(line)[2].rfind("trace_digest[", 0), 0u) << line;
    }
  }
}


// ------------------------------------------------------- failure capture

TEST(Runner, FailedRunsAreRecordedNotFatal) {
  // An invalid scenario (kTrace with no trace) throws SessionError per
  // run; the grid must keep going, record each failure with scenario +
  // seed context, and aggregate only the good scenario.
  core::SessionConfig good = small_config();
  core::SessionConfig bad = small_config();
  bad.net = core::NetProfile::kTrace;  // trace left empty -> SessionError

  std::vector<ScenarioSpec> scenarios(2);
  scenarios[0].id = "good";
  scenarios[0].config = good;
  scenarios[1].id = "bad";
  scenarios[1].config = bad;

  for (const int jobs : {1, 4}) {
    RunOptions opts;
    opts.jobs = jobs;
    opts.seeds = {101, 202};
    const ResultSet results = run_grid(scenarios, opts);

    const ScenarioResult& ok = results.all()[0];
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.agg.runs, 2);
    EXPECT_TRUE(ok.agg.all_finished);

    const ScenarioResult& failed = results.all()[1];
    EXPECT_FALSE(failed.ok());
    ASSERT_EQ(failed.failures.size(), 2u);
    EXPECT_EQ(failed.agg.runs, 0);
    EXPECT_FALSE(failed.agg.all_finished);
    EXPECT_EQ(failed.failures[0].seed, 101u);
    EXPECT_EQ(failed.failures[0].seed_index, 0u);
    EXPECT_EQ(failed.failures[1].seed, 202u);
    // The message is self-describing: scenario id, seed, and the cause.
    EXPECT_NE(failed.failures[0].message.find("scenario 'bad'"), std::string::npos)
        << failed.failures[0].message;
    EXPECT_NE(failed.failures[0].message.find("seed 101"), std::string::npos);
    EXPECT_NE(failed.failures[0].message.find("trace"), std::string::npos);
  }
}

TEST(Runner, FailureReportIsDeterministicAcrossJobs) {
  std::vector<ScenarioSpec> scenarios(1);
  scenarios[0].id = "bad";
  scenarios[0].config = small_config();
  scenarios[0].config.net = core::NetProfile::kTrace;

  RunOptions serial;
  serial.jobs = 1;
  serial.seeds = {5, 6, 7};
  RunOptions parallel = serial;
  parallel.jobs = 3;
  const ResultSet s = run_grid(scenarios, serial);
  const ResultSet p = run_grid(scenarios, parallel);
  ASSERT_EQ(s.all()[0].failures.size(), 3u);
  ASSERT_EQ(p.all()[0].failures.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.all()[0].failures[i].seed, p.all()[0].failures[i].seed);
    EXPECT_EQ(s.all()[0].failures[i].message, p.all()[0].failures[i].message);
  }
}

TEST(Sinks, FailuresSurfaceInJsonAndCsvOnlyWhenPresent) {
  std::vector<ScenarioSpec> scenarios(2);
  scenarios[0].id = "good";
  scenarios[0].config = small_config();
  scenarios[1].id = "bad";
  scenarios[1].config = small_config();
  scenarios[1].config.net = core::NetProfile::kTrace;

  RunOptions opts;
  opts.seeds = {101};
  std::vector<Section> sections;
  sections.push_back(Section{"main", run_grid(scenarios, opts)});

  const Json report = bench_report_json("rx", "t", BenchOptions{}, sections);
  const std::string text = report.dump();
  EXPECT_NE(text.find("\"failed_runs\""), std::string::npos);
  EXPECT_NE(text.find("scenario 'bad' seed 101"), std::string::npos);
  // The clean scenario's JSON object carries no failure keys at all.
  EXPECT_EQ(text.find("\"failed_runs\""), text.rfind("\"failed_runs\""));

  std::ostringstream csv;
  write_bench_csv(csv, sections);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("bad,failed_runs,1"), std::string::npos);
  EXPECT_EQ(csv_text.find("good,failed_runs"), std::string::npos);
}

TEST(Runner, ParallelMatchesSerialUnderFaults) {
  // The fault layer must not disturb the runner's bit-identity guarantee:
  // a faulted grid over --jobs 4 equals the serial run exactly.
  core::SessionConfig base = small_config();
  base.media_duration = sim::SimTime::seconds(30);
  base.fault = fault::FaultPlanConfig::harsh();
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  base.vafs.watchdog.enabled = true;
  ExperimentGrid grid(base);
  grid.governors({"ondemand", "vafs"});

  RunOptions serial;
  serial.jobs = 1;
  serial.seeds = {101, 202};
  RunOptions parallel = serial;
  parallel.jobs = 4;
  const ResultSet s = run_grid(grid, serial);
  const ResultSet p = run_grid(grid, parallel);
  ASSERT_EQ(s.all().size(), p.all().size());
  for (std::size_t i = 0; i < s.all().size(); ++i) {
    ASSERT_EQ(s.all()[i].runs.size(), p.all()[i].runs.size());
    for (std::size_t r = 0; r < s.all()[i].runs.size(); ++r) {
      expect_identical(s.all()[i].runs[r], p.all()[i].runs[r]);
      EXPECT_EQ(s.all()[i].runs[r].fault_windows, p.all()[i].runs[r].fault_windows);
      EXPECT_EQ(s.all()[i].runs[r].vafs_fallback_time, p.all()[i].runs[r].vafs_fallback_time);
      EXPECT_EQ(s.all()[i].runs[r].qoe.fetch_retries, p.all()[i].runs[r].qoe.fetch_retries);
    }
  }
}

// ------------------------------------------------- cooperative task timeout

TEST(Runner, TinyTaskTimeoutBecomesACapturedFailure) {
  // A 1 ms wall-clock budget cannot cover a full session: the deadline
  // check (every 4096 events) fires and the task lands in the scenario's
  // failure list as a captured failure, exactly like any other throw —
  // the grid keeps going, nothing wedges, artifacts record the message.
  core::SessionConfig config = small_config();
  config.media_duration = sim::SimTime::seconds(600);  // plenty of events
  ExperimentGrid grid(config);
  grid.governors({"ondemand"});

  RunOptions opts;
  opts.jobs = 1;
  opts.seeds = {101, 202};
  opts.task_timeout_ms = 1;
  const ResultSet rs = run_grid(grid.scenarios(), opts);
  ASSERT_EQ(rs.all().size(), 1u);
  const ScenarioResult& sr = rs.all()[0];
  ASSERT_FALSE(sr.failures.empty());
  for (const RunFailure& f : sr.failures) {
    EXPECT_NE(f.message.find("wall-clock task timeout: task_timeout_ms=1 exceeded"),
              std::string::npos)
        << f.message;
  }
  EXPECT_FALSE(sr.agg.all_finished);
  // Failed slots stay default-constructed.
  EXPECT_EQ(sr.runs[sr.failures[0].seed_index].sim_events, 0u);
}

TEST(Runner, GenerousTaskTimeoutIsBitwiseInvisible) {
  ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});

  RunOptions plain;
  plain.jobs = 1;
  plain.seeds = {101, 202};
  plain.trace = true;
  const ResultSet a = run_grid(grid.scenarios(), plain);

  RunOptions timed = plain;
  timed.task_timeout_ms = 60 * 1000;
  const ResultSet b = run_grid(grid.scenarios(), timed);

  ASSERT_EQ(a.all().size(), b.all().size());
  for (std::size_t s = 0; s < a.all().size(); ++s) {
    ASSERT_TRUE(a.all()[s].ok());
    ASSERT_TRUE(b.all()[s].ok());
    for (std::size_t r = 0; r < a.all()[s].runs.size(); ++r) {
      expect_identical(a.all()[s].runs[r], b.all()[s].runs[r]);
      // The deadline probe must not touch the event stream.
      EXPECT_EQ(a.all()[s].runs[r].trace_digest, b.all()[s].runs[r].trace_digest);
    }
  }
}

TEST(Options, SuperviseAndChaosFlagsParse) {
  const char* argv[] = {"bench",
                        "--supervise",
                        "4",
                        "--task-timeout-ms",
                        "5000",
                        "--task-deadline-ms=9000",
                        "--task-retries",
                        "5",
                        "--heartbeat-ms",
                        "100",
                        "--heartbeat-timeout-ms",
                        "900",
                        "--worker-as-limit-mb",
                        "512",
                        "--worker-rss-limit-mb=256",
                        "--chaos-seed",
                        "42",
                        "--chaos-crash",
                        "0.01",
                        "--chaos-exit=0.5",
                        "--chaos-stall",
                        "1.0"};
  BenchOptions options;
  std::string error;
  ASSERT_TRUE(parse_bench_args(static_cast<int>(std::size(argv)), const_cast<char**>(argv),
                               &options, &error))
      << error;
  EXPECT_EQ(options.supervise, 4);
  EXPECT_EQ(options.task_timeout_ms, 5000);
  EXPECT_EQ(options.task_deadline_ms, 9000);
  EXPECT_EQ(options.task_retries, 5);
  EXPECT_EQ(options.heartbeat_ms, 100);
  EXPECT_EQ(options.heartbeat_timeout_ms, 900);
  EXPECT_EQ(options.worker_as_limit_mb, 512u);
  EXPECT_EQ(options.worker_rss_limit_mb, 256u);
  EXPECT_EQ(options.chaos_seed, 42u);
  EXPECT_DOUBLE_EQ(options.chaos_crash, 0.01);
  EXPECT_DOUBLE_EQ(options.chaos_exit, 0.5);
  EXPECT_DOUBLE_EQ(options.chaos_stall, 1.0);
  EXPECT_TRUE(options.chaos_enabled());

  // Out-of-range rates and worker counts are rejected with context.
  const char* bad_rate[] = {"bench", "--chaos-crash", "1.5"};
  BenchOptions rejected;
  EXPECT_FALSE(parse_bench_args(3, const_cast<char**>(bad_rate), &rejected, &error));
  EXPECT_NE(error.find("chaos-crash"), std::string::npos) << error;
  const char* bad_workers[] = {"bench", "--supervise", "0"};
  EXPECT_FALSE(parse_bench_args(3, const_cast<char**>(bad_workers), &rejected, &error));
  EXPECT_NE(error.find("supervise"), std::string::npos) << error;
}

}  // namespace
}  // namespace vafs::exp
