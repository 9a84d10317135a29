// Tests for the governor auto-tuner (src/tune), organized around its two
// correctness claims:
//
//  1. Determinism: the search trajectory and artifacts are a pure
//     function of the seed — bit-identical at any --jobs, and a
//     killed-and-resumed search reproduces the uninterrupted artifacts
//     byte for byte.
//  2. Correctness of the search itself: on a space small enough to
//     enumerate, the tuner's winner equals an independent exhaustive
//     constrained argmin (differential oracle), including the infeasible
//     case where no point meets the QoE floors.
//
// Plus unit coverage of the pieces those claims rest on: ParamSpace grid
// arithmetic and validation, the pure TunerRng, the canonical total order
// better(), and state-file truncation/corruption/mismatch/hostile-count
// refusal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/grid.h"
#include "exp/runner.h"
#include "fleet/io.h"
#include "tune/param_space.h"
#include "tune/tuner.h"

namespace vafs::tune {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("vafs_tune_test_" + name);
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

void spit(const fs::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  ASSERT_TRUE(out.good());
}

/// Short real session so fleet-backed searches stay cheap.
core::SessionConfig small_base() {
  core::SessionConfig base;
  base.media_duration = sim::SimTime::seconds(10);
  base.fixed_rep = 2;
  return base;
}

TuneContext vafs_fair_cell(const std::string& name = "cell/fair") {
  TuneContext ctx;
  ctx.name = name;
  ctx.net = core::NetProfile::kFair;
  ctx.net_label = "fair";
  ctx.governor = "vafs";
  return ctx;
}

// ---------------------------------------------------------------------------
// ParamSpace

TEST(ParamSpace, GridArithmetic) {
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05).dim("predictor_window", 8, 40, 8);
  ASSERT_EQ(space.dims(), 2u);
  EXPECT_EQ(space.def(0).count(), 7u);  // 0.05 .. 0.35
  EXPECT_EQ(space.def(1).count(), 5u);  // 8, 16, 24, 32, 40
  EXPECT_EQ(space.point_count(), 35u);
  EXPECT_DOUBLE_EQ(space.def(0).value(0), 0.05);
  EXPECT_DOUBLE_EQ(space.def(1).value(4), 40.0);

  const std::vector<double> vals = space.values({2, 1});
  EXPECT_DOUBLE_EQ(vals[0], 0.05 + 2 * 0.05);
  EXPECT_DOUBLE_EQ(vals[1], 16.0);
  EXPECT_EQ(space.format({0, 0}), "safety_margin=0.05 predictor_window=8");
}

TEST(ParamSpace, DegenerateSinglePointDimension) {
  ParamSpace space;
  // lo == hi is a valid single-point dimension regardless of step — the
  // count must not divide by the (zero) width.
  space.dim("quantile", 0.9, 0.9, 0.0);
  EXPECT_EQ(space.def(0).count(), 1u);
  EXPECT_EQ(space.point_count(), 1u);
  EXPECT_DOUBLE_EQ(space.values({0})[0], 0.9);
  EXPECT_THROW(space.values({1}), std::out_of_range);
}

TEST(ParamSpace, RejectsInvalidDimensions) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ParamSpace().dim("no_such_knob", 0, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(ParamSpace().dim("quantile", 0.9, 0.8, 0.05), std::invalid_argument);  // inverted
  EXPECT_THROW(ParamSpace().dim("quantile", 0.8, 0.9, 0.0), std::invalid_argument);   // step 0
  EXPECT_THROW(ParamSpace().dim("quantile", 0.8, 0.9, -0.1), std::invalid_argument);
  EXPECT_THROW(ParamSpace().dim("quantile", 0.0, inf, 0.1), std::invalid_argument);
  EXPECT_THROW(ParamSpace().dim("quantile", 0.0, 1.0, 1e-9), std::invalid_argument);  // too wide
  ParamSpace space;
  space.dim("quantile", 0.8, 0.9, 0.05);
  EXPECT_THROW(space.dim("quantile", 0.1, 0.2, 0.05), std::invalid_argument);  // duplicate
}

TEST(ParamSpace, BoundsChecksCandidates) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1);
  EXPECT_THROW(space.values({}), std::out_of_range);      // arity
  EXPECT_THROW(space.values({0, 0}), std::out_of_range);  // arity
  EXPECT_THROW(space.values({3}), std::out_of_range);     // index == count
  core::SessionConfig cfg;
  EXPECT_THROW(space.apply({3}, cfg), std::out_of_range);
}

TEST(ParamSpace, AppliesVafsAndSysfsKnobs) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1)
      .dim("boost_ms", 250, 1000, 250)
      .dim("ondemand.up_threshold", 60, 95, 5);
  core::SessionConfig cfg;
  space.apply({2, 1, 4}, cfg);
  EXPECT_DOUBLE_EQ(cfg.vafs.safety_margin, 0.1 + 2 * 0.1);
  EXPECT_EQ(cfg.vafs.boost_duration, sim::SimTime::millis(500));
  // Sampling-governor knobs route through governor_tunables as the real
  // sysfs attribute path + integer text.
  ASSERT_EQ(cfg.governor_tunables.size(), 1u);
  EXPECT_EQ(cfg.governor_tunables[0].first, "ondemand/up_threshold");
  EXPECT_EQ(cfg.governor_tunables[0].second, "80");
  // Re-applying a different candidate replaces, never duplicates.
  space.apply({0, 0, 0}, cfg);
  ASSERT_EQ(cfg.governor_tunables.size(), 1u);
  EXPECT_EQ(cfg.governor_tunables[0].second, "60");
}

TEST(ParamSpace, FingerprintSeparatesSpaces) {
  ParamSpace a;
  a.dim("safety_margin", 0.1, 0.3, 0.1);
  ParamSpace b;
  b.dim("safety_margin", 0.1, 0.3, 0.05);
  ParamSpace c;
  c.dim("quantile", 0.1, 0.3, 0.1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  ParamSpace a2;
  a2.dim("safety_margin", 0.1, 0.3, 0.1);
  EXPECT_EQ(a.fingerprint(), a2.fingerprint());
}

TEST(TunerRng, PureAndInRange) {
  const TunerRng rng(12345);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint32_t v = rng.pick(k, 7);
    EXPECT_LT(v, 7u);
    EXPECT_EQ(v, rng.pick(k, 7));  // pure in (seed, k)
  }
  // A different seed gives a different stream (overwhelmingly).
  const TunerRng other(54321);
  int diff = 0;
  for (std::uint64_t k = 0; k < 64; ++k) diff += rng.pick(k, 1000) != other.pick(k, 1000);
  EXPECT_GT(diff, 0);
}

// ---------------------------------------------------------------------------
// The canonical total order.

Score eval_score(bool feasible, double violation, double energy) {
  Score s;
  s.evaluated = true;
  s.feasible = feasible;
  s.violation = violation;
  s.energy_mj = energy;
  return s;
}

TEST(Better, CanonicalOrder) {
  const Candidate c0{0}, c1{1};
  const Score feas = eval_score(true, 0.0, 100.0);
  const Score feas_cheap = eval_score(true, 0.0, 50.0);
  const Score infeas = eval_score(false, 0.5, 1.0);
  const Score infeas_worse = eval_score(false, 2.0, 1.0);
  Score unevaluated;

  // Feasible beats infeasible regardless of energy.
  EXPECT_TRUE(better(feas, c0, infeas, c1));
  EXPECT_FALSE(better(infeas, c1, feas, c0));
  // Among feasible: energy ascending.
  EXPECT_TRUE(better(feas_cheap, c1, feas, c0));
  // Among infeasible: violation ascending.
  EXPECT_TRUE(better(infeas, c0, infeas_worse, c1));
  // Ties broken by lexicographic candidate index — a strict total order.
  EXPECT_TRUE(better(feas, c0, feas, c1));
  EXPECT_FALSE(better(feas, c1, feas, c0));
  // Evaluated beats unevaluated; two unevaluated scores are incomparable.
  EXPECT_TRUE(better(infeas_worse, c1, unevaluated, c0));
  EXPECT_FALSE(better(unevaluated, c0, unevaluated, c1));
}

// ---------------------------------------------------------------------------
// Synthetic-landscape oracle: the search finds the exhaustive constrained
// argmin on a space it can fully enumerate, for several landscapes.

/// Deterministic synthetic evaluator: a fixed pseudo-random landscape per
/// (mix, candidate), with feasibility decided by a synthetic "stall" that
/// the Constraints in play cap at 0.01.
class SyntheticEvaluator : public Evaluator {
 public:
  explicit SyntheticEvaluator(std::uint64_t mix) : mix_(mix) {}

  Score score_of(const Candidate& c) const {
    const TunerRng rng(mix_);
    std::uint64_t key = 0;
    for (const std::uint32_t i : c) key = key * 1000003 + i + 1;
    const double energy = 100.0 + rng.pick(key, 1000);
    const double stall = rng.pick(key + 1, 100) / 1000.0;  // 0 .. 0.099
    Score s;
    s.evaluated = true;
    s.energy_mj = energy;
    s.rebuffer_ratio = stall;
    s.violation = stall > 0.01 ? (stall - 0.01) / 0.01 : 0.0;
    s.feasible = s.violation == 0.0;
    s.runs = 1;
    return s;
  }

  RoundResult evaluate(const RoundRequest& req) override {
    RoundResult out;
    for (const Candidate& c : req.candidates) out.scores.push_back(score_of(c));
    ++rounds;
    return out;
  }

  std::uint64_t mix_;
  int rounds = 0;
};

/// All candidates of a space, lexicographic.
std::vector<Candidate> enumerate(const ParamSpace& space) {
  std::vector<Candidate> all;
  Candidate c(space.dims(), 0);
  for (;;) {
    all.push_back(c);
    std::size_t d = space.dims();
    while (d-- > 0) {
      if (++c[d] < space.def(d).count()) break;
      c[d] = 0;
      if (d == 0) return all;
    }
  }
}

TEST(TunerOracle, SyntheticExhaustiveArgmin) {
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05).dim("quantile", 0.80, 0.95, 0.05);  // 7 x 4

  for (std::uint64_t mix : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    SyntheticEvaluator eval(mix);
    TunerOptions opts;
    opts.initial_candidates = 64;  // >= 28 points: rung 0 is exhaustive
    opts.seed_schedule = {2};      // single rung
    opts.refine_passes = 4;        // may only re-confirm the argmin
    opts.sensitivity = false;
    const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval);
    ASSERT_TRUE(report.complete()) << report.error;
    ASSERT_EQ(report.cells.size(), 1u);

    // Independent exhaustive constrained argmin under the canonical order.
    const std::vector<Candidate> all = enumerate(space);
    std::size_t want = 0;
    for (std::size_t i = 1; i < all.size(); ++i) {
      if (better(eval.score_of(all[i]), all[i], eval.score_of(all[want]), all[want])) want = i;
    }
    EXPECT_EQ(report.cells[0].best, all[want]) << "landscape mix " << mix;
    EXPECT_EQ(report.cells[0].best_score.feasible, eval.score_of(all[want]).feasible);
    EXPECT_DOUBLE_EQ(report.cells[0].best_score.energy_mj, eval.score_of(all[want]).energy_mj);
  }
}

TEST(TunerOracle, SyntheticInfeasibleLandscapeReported) {
  // A landscape where nothing is feasible: every synthetic stall > cap.
  class AllInfeasible : public SyntheticEvaluator {
   public:
    AllInfeasible() : SyntheticEvaluator(9) {}
    RoundResult evaluate(const RoundRequest& req) override {
      RoundResult out;
      for (const Candidate& c : req.candidates) {
        Score s = score_of(c);
        s.violation = 1.0 + s.violation;  // uniformly infeasible
        s.feasible = false;
        out.scores.push_back(s);
      }
      return out;
    }
  };

  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1);
  AllInfeasible eval;
  TunerOptions opts;
  opts.initial_candidates = 8;
  opts.seed_schedule = {1};
  opts.refine_passes = 0;
  opts.sensitivity = false;
  const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval);
  ASSERT_TRUE(report.complete()) << report.error;
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_FALSE(report.cells[0].best_score.feasible);
  EXPECT_GT(report.cells[0].best_score.violation, 0.0);
  // The artifact says so too: an infeasible cell carries its violation.
  const std::string json = tuned_configs_json(space, {vafs_fair_cell()}, opts, report).dump();
  EXPECT_NE(json.find("\"feasible\": false"), std::string::npos);
  EXPECT_NE(json.find("\"violation\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real-fleet differential oracle on a tiny 2-knob space: the tuner's
// winner equals an independent exhaustive constrained argmin computed
// through exp::run_grid, scoring re-derived from the aggregates here.

struct OracleScore {
  bool feasible = false;
  double violation = 0.0;
  double energy = 0.0;
};

/// Independent re-derivation of the constraint-aware objective from a
/// scenario aggregate (mirrors the tuner's documented scoring).
OracleScore oracle_score(const exp::Aggregate& agg, const Constraints& cons) {
  OracleScore s;
  s.energy = agg.total_mj.mean();
  const double wall = agg.wall_s.mean();
  const double rebuffer_ratio = wall > 0.0 ? agg.rebuffer_s.mean() / wall : 0.0;
  const auto excess = [](double x, double cap) {
    return (cap > 0.0 && x > cap) ? (x - cap) / cap : 0.0;
  };
  s.violation = excess(rebuffer_ratio, cons.max_rebuffer_ratio) +
                excess(agg.drop_pct.mean(), cons.max_drop_pct) +
                excess(agg.startup_s.mean(), cons.max_startup_s);
  s.feasible = s.violation == 0.0;
  return s;
}

TEST(TunerOracle, RealFleetTinySpaceMatchesExhaustive) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1).dim("quantile", 0.85, 0.95, 0.1);  // 3 x 2

  TuneContext ctx = vafs_fair_cell();
  TunerOptions opts;
  opts.base = small_base();
  opts.initial_candidates = 8;  // >= 6: exhaustive rung 0
  opts.seed_schedule = {2};     // single rung at full seeds
  opts.refine_passes = 2;       // must not move off the exhaustive argmin
  opts.sensitivity = false;
  opts.jobs = 2;
  const TuneReport report = run_tuner(space, {ctx}, opts);
  ASSERT_TRUE(report.complete()) << report.error;
  ASSERT_EQ(report.cells.size(), 1u);

  // Oracle: evaluate every point the same way the tuner's evaluator
  // does (base + cell override + candidate), through exp::run_grid.
  const std::vector<Candidate> all = enumerate(space);
  std::vector<OracleScore> scores;
  for (const Candidate& c : all) {
    exp::ScenarioSpec spec;
    spec.id = "oracle";
    spec.config = opts.base;
    spec.config.net = ctx.net;
    spec.config.governor = ctx.governor;
    space.apply(c, spec.config);
    exp::RunOptions ro;
    ro.jobs = 2;
    ro.seeds = {opts.eval_seed_base, opts.eval_seed_base + 1};
    ro.trace = true;
    const exp::ResultSet rs = exp::run_grid(std::vector<exp::ScenarioSpec>{spec}, ro);
    ASSERT_TRUE(rs.all().at(0).ok());
    scores.push_back(oracle_score(rs.all().at(0).agg, ctx.constraints));
  }
  std::size_t want = 0;
  const auto oracle_better = [&](std::size_t a, std::size_t b) {
    if (scores[a].feasible != scores[b].feasible) return scores[a].feasible;
    if (scores[a].violation != scores[b].violation) return scores[a].violation < scores[b].violation;
    if (scores[a].energy != scores[b].energy) return scores[a].energy < scores[b].energy;
    return all[a] < all[b];
  };
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (oracle_better(i, want)) want = i;
  }

  EXPECT_EQ(report.cells[0].best, all[want]);
  EXPECT_EQ(report.cells[0].best_score.feasible, scores[want].feasible);
  EXPECT_DOUBLE_EQ(report.cells[0].best_score.energy_mj, scores[want].energy);
}

TEST(TunerOracle, RealFleetImpossibleFloorReportsInfeasible) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1);

  TuneContext ctx = vafs_fair_cell();
  ctx.constraints.max_startup_s = 1e-9;  // no session starts instantly
  TunerOptions opts;
  opts.base = small_base();
  opts.initial_candidates = 4;
  opts.seed_schedule = {1};
  opts.refine_passes = 0;
  opts.sensitivity = false;
  opts.jobs = 2;
  const TuneReport report = run_tuner(space, {ctx}, opts);
  ASSERT_TRUE(report.complete()) << report.error;
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_FALSE(report.cells[0].best_score.feasible);
  EXPECT_GT(report.cells[0].best_score.violation, 0.0);
  const std::string json = tuned_configs_json(space, {ctx}, opts, report).dump();
  EXPECT_NE(json.find("\"feasible\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical artifacts at any job count,
// and a killed-and-resumed search reproduces them exactly.

struct SearchSetup {
  ParamSpace space;
  std::vector<TuneContext> contexts;
  TunerOptions opts;
};

/// A sampled (non-exhaustive) search over two cells — big enough to
/// exercise rungs, refinement and the sensitivity sweep.
SearchSetup sampled_search() {
  SearchSetup s;
  s.space.dim("safety_margin", 0.05, 0.35, 0.05).dim("quantile", 0.80, 0.95, 0.05);  // 28 points
  TuneContext fair = vafs_fair_cell("default/fair");
  TuneContext poor = vafs_fair_cell("default/poor");
  poor.net = core::NetProfile::kPoor;
  poor.net_label = "poor";
  poor.constraints.max_rebuffer_ratio = 0.05;
  s.contexts = {fair, poor};
  s.opts.base = small_base();
  s.opts.search_seed = 1;
  s.opts.initial_candidates = 6;
  s.opts.eta = 3;
  s.opts.seed_schedule = {1, 2};
  s.opts.refine_passes = 1;
  s.opts.sensitivity = true;
  return s;
}

TEST(TunerDeterminism, JobCountInvariant) {
  const SearchSetup s = sampled_search();

  std::string reference;
  std::uint64_t reference_digest = 0;
  for (const int jobs : {1, 4, 16}) {
    TunerOptions opts = s.opts;
    opts.jobs = jobs;
    const TuneReport report = run_tuner(s.space, s.contexts, opts);
    ASSERT_TRUE(report.complete()) << report.error;
    const std::string json = tuned_configs_json(s.space, s.contexts, opts, report).dump();
    const std::string csv = sensitivity_csv(s.space, report);
    if (reference.empty()) {
      reference = json + "\n" + csv;
      reference_digest = report.trajectory_digest;
      EXPECT_GT(report.rounds, 0u);
      EXPECT_EQ(report.rounds_replayed, 0u);
    } else {
      EXPECT_EQ(json + "\n" + csv, reference) << "jobs=" << jobs;
      EXPECT_EQ(report.trajectory_digest, reference_digest);
    }
  }
}

TEST(TunerDeterminism, KilledAndResumedReproducesBytes) {
  const SearchSetup s = sampled_search();

  // Uninterrupted reference (with checkpointing on, so the artifact is
  // produced through the exact same code path).
  const fs::path ref_dir = fresh_dir("resume_ref");
  TunerOptions ref_opts = s.opts;
  ref_opts.jobs = 4;
  ref_opts.checkpoint_dir = ref_dir.string();
  const TuneReport ref = run_tuner(s.space, s.contexts, ref_opts);
  ASSERT_TRUE(ref.complete()) << ref.error;
  const std::string ref_json = tuned_configs_json(s.space, s.contexts, ref_opts, ref).dump();
  const std::string ref_csv = sensitivity_csv(s.space, ref);

  // Interrupted run: stop cooperatively partway through (the poll fires
  // between rounds and per folded fleet shard, so this lands mid-search
  // and usually mid-round).
  const fs::path dir = fresh_dir("resume_kill");
  TunerOptions opts = s.opts;
  opts.jobs = 4;
  opts.checkpoint_dir = dir.string();
  int polls = 0;
  opts.keep_going = [&polls] { return ++polls <= 7; };
  const TuneReport killed = run_tuner(s.space, s.contexts, opts);
  ASSERT_TRUE(killed.ok()) << killed.error;
  ASSERT_TRUE(killed.stopped);
  EXPECT_FALSE(killed.complete());

  // Resume to completion: recorded rounds replay, the in-flight round
  // fleet-resumes, and the artifacts match the uninterrupted run.
  opts.keep_going = nullptr;
  opts.resume = true;
  const TuneReport resumed = run_tuner(s.space, s.contexts, opts);
  ASSERT_TRUE(resumed.complete()) << resumed.error;
  EXPECT_GT(resumed.rounds_replayed, 0u);
  EXPECT_EQ(tuned_configs_json(s.space, s.contexts, opts, resumed).dump(), ref_json);
  EXPECT_EQ(sensitivity_csv(s.space, resumed), ref_csv);
  EXPECT_EQ(resumed.trajectory_digest, ref.trajectory_digest);
}

// ---------------------------------------------------------------------------
// State-file safety: corruption, truncation and mismatched searches are
// refused with pointed errors instead of silently resuming wrong state.

/// Runs a cheap synthetic search with checkpointing to produce a state
/// file, returning its path.
fs::path make_state_file(const fs::path& dir, SyntheticEvaluator* eval, const ParamSpace& space,
                         const TunerOptions& base_opts) {
  TunerOptions opts = base_opts;
  opts.checkpoint_dir = dir.string();
  const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, eval);
  EXPECT_TRUE(report.complete()) << report.error;
  const fs::path state = dir / "tune-state.ckpt";
  EXPECT_TRUE(fs::exists(state));
  return state;
}

TunerOptions synthetic_opts() {
  TunerOptions opts;
  opts.initial_candidates = 4;
  opts.seed_schedule = {1, 2};
  opts.refine_passes = 1;
  opts.sensitivity = false;
  return opts;
}

TEST(TunerState, ResumeRefusesCorruption) {
  const fs::path dir = fresh_dir("state_corrupt");
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05);
  SyntheticEvaluator eval(3);
  const fs::path state = make_state_file(dir, &eval, space, synthetic_opts());

  std::string body = slurp(state);
  ASSERT_GT(body.size(), 40u);
  body[body.size() / 2] = body[body.size() / 2] == 'a' ? 'b' : 'a';
  spit(state, body);

  TunerOptions opts = synthetic_opts();
  opts.checkpoint_dir = dir.string();
  opts.resume = true;
  SyntheticEvaluator eval2(3);
  const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval2);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error.find("resume refused"), std::string::npos) << report.error;
  EXPECT_NE(report.error.find("checksum mismatch"), std::string::npos) << report.error;
}

TEST(TunerState, ResumeRefusesTruncation) {
  const fs::path dir = fresh_dir("state_trunc");
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05);
  SyntheticEvaluator eval(3);
  const fs::path state = make_state_file(dir, &eval, space, synthetic_opts());

  std::string body = slurp(state);
  spit(state, body.substr(0, body.size() - 10));  // tear off the end line

  TunerOptions opts = synthetic_opts();
  opts.checkpoint_dir = dir.string();
  opts.resume = true;
  SyntheticEvaluator eval2(3);
  const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval2);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error.find("truncated"), std::string::npos) << report.error;
}

// A correctly sealed state file whose candidate claims 2^63 runs (or
// failures): the count does not fit the score's int64_t, so resume refuses
// it instead of storing a negative count.
TEST(TunerState, ResumeRefusesACountPastInt64) {
  const fs::path dir = fresh_dir("state_hostile");
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05);
  SyntheticEvaluator eval(3);
  const fs::path state = make_state_file(dir, &eval, space, synthetic_opts());
  std::string body;
  std::string error;
  ASSERT_TRUE(fleet::read_sealed(state.string(), "tune-state", &body, &error)) << error;

  // c <candidate> <flags> <7 f64> <runs> <failures>
  const std::size_t at = body.find("\nc ") + 1;
  ASSERT_GT(at, 0u);
  const std::size_t end = body.find('\n', at);
  const std::size_t failures_at = body.rfind(' ', end) + 1;
  const std::size_t runs_at = body.rfind(' ', failures_at - 2) + 1;
  for (const std::size_t field : {runs_at, failures_at}) {
    std::string hostile = body;
    const std::size_t field_end = hostile.find_first_of(" \n", field);
    hostile.replace(field, field_end - field, "9223372036854775808");
    ASSERT_TRUE(fleet::write_sealed(state.string(), hostile, "tune-state", "state file", &error))
        << error;

    TunerOptions opts = synthetic_opts();
    opts.checkpoint_dir = dir.string();
    opts.resume = true;
    SyntheticEvaluator eval2(3);
    const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval2);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.error.find("bad candidate line"), std::string::npos) << report.error;
    EXPECT_EQ(eval2.rounds, 0);
  }
}

TEST(TunerState, ResumeRefusesDifferentSearch) {
  const fs::path dir = fresh_dir("state_mismatch");
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05);
  SyntheticEvaluator eval(3);
  make_state_file(dir, &eval, space, synthetic_opts());

  // Same directory, different space: refused before any round runs.
  ParamSpace other;
  other.dim("quantile", 0.80, 0.95, 0.05);
  TunerOptions opts = synthetic_opts();
  opts.checkpoint_dir = dir.string();
  opts.resume = true;
  SyntheticEvaluator eval2(3);
  const TuneReport report = run_tuner(other, {vafs_fair_cell()}, opts, &eval2);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error.find("different parameter space"), std::string::npos) << report.error;

  // Different search options over the same space: also refused.
  TunerOptions changed = synthetic_opts();
  changed.search_seed = 999;
  changed.checkpoint_dir = dir.string();
  changed.resume = true;
  SyntheticEvaluator eval3(3);
  const TuneReport report2 = run_tuner(space, {vafs_fair_cell()}, changed, &eval3);
  ASSERT_FALSE(report2.ok());
  EXPECT_NE(report2.error.find("different parameter space or search configuration"),
            std::string::npos)
      << report2.error;
}

TEST(TunerState, FreshRunScrubsStaleState) {
  const fs::path dir = fresh_dir("state_scrub");
  ParamSpace space;
  space.dim("safety_margin", 0.05, 0.35, 0.05);
  SyntheticEvaluator eval(3);
  make_state_file(dir, &eval, space, synthetic_opts());

  // A fresh (non-resume) run into the same dirty directory must not
  // replay the previous search's rounds.
  TunerOptions opts = synthetic_opts();
  opts.checkpoint_dir = dir.string();
  SyntheticEvaluator eval2(3);
  const TuneReport report = run_tuner(space, {vafs_fair_cell()}, opts, &eval2);
  ASSERT_TRUE(report.complete()) << report.error;
  EXPECT_EQ(report.rounds_replayed, 0u);
  EXPECT_GT(eval2.rounds, 0);
}

// ---------------------------------------------------------------------------
// Validation and artifact shape.

TEST(Tuner, ValidatesInputs) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1);
  SyntheticEvaluator eval(1);

  EXPECT_FALSE(run_tuner(ParamSpace(), {vafs_fair_cell()}, synthetic_opts(), &eval).ok());
  EXPECT_FALSE(run_tuner(space, {}, synthetic_opts(), &eval).ok());

  TuneContext unnamed = vafs_fair_cell("");
  EXPECT_FALSE(run_tuner(space, {unnamed}, synthetic_opts(), &eval).ok());
  TuneContext spacey = vafs_fair_cell("a b");
  EXPECT_FALSE(run_tuner(space, {spacey}, synthetic_opts(), &eval).ok());
  EXPECT_FALSE(
      run_tuner(space, {vafs_fair_cell("x"), vafs_fair_cell("x")}, synthetic_opts(), &eval).ok());

  TunerOptions bad = synthetic_opts();
  bad.seed_schedule = {4, 2};  // descending
  EXPECT_FALSE(run_tuner(space, {vafs_fair_cell()}, bad, &eval).ok());
  bad = synthetic_opts();
  bad.seed_schedule.clear();
  EXPECT_FALSE(run_tuner(space, {vafs_fair_cell()}, bad, &eval).ok());
  bad = synthetic_opts();
  bad.eta = 1;
  EXPECT_FALSE(run_tuner(space, {vafs_fair_cell()}, bad, &eval).ok());
}

TEST(Tuner, ArtifactShape) {
  ParamSpace space;
  space.dim("safety_margin", 0.1, 0.3, 0.1).dim("quantile", 0.85, 0.95, 0.05);
  SyntheticEvaluator eval(5);
  TunerOptions opts = synthetic_opts();
  opts.sensitivity = true;
  const std::vector<TuneContext> contexts = {vafs_fair_cell("flag/fair")};
  const TuneReport report = run_tuner(space, contexts, opts, &eval);
  ASSERT_TRUE(report.complete()) << report.error;

  const std::string json = tuned_configs_json(space, contexts, opts, report).dump();
  for (const char* needle :
       {"\"schema_version\": 1", "\"search\":", "\"trajectory_digest\":", "\"space\":",
        "\"cells\":", "\"cell\": \"flag/fair\"", "\"safety_margin\":", "\"quantile\":",
        "\"objective\":", "\"constraints\":", "\"index\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const std::string csv = sensitivity_csv(space, report);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "cell,param,index,value,feasible,violation,energy_mj,rebuffer_ratio,drop_pct,"
            "startup_s,bitrate_kbps,guard_rebuffer_s");
  // One swept row per grid point per dimension (3 + 3 here).
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].sensitivity.size(), 6u);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')), 1u + 6u);
}

// The sysfs-tunable path end to end: a real session accepts a tuned
// sampling-governor attribute and rejects an unknown one with a captured
// failure (not an abort) through the grid runner.
TEST(Tuner, GovernorTunablesApplyThroughSysfs) {
  exp::ScenarioSpec good;
  good.id = "good";
  good.config = small_base();
  good.config.governor = "ondemand";
  ParamSpace space;
  space.dim("ondemand.up_threshold", 60, 95, 5);
  space.apply({4}, good.config);  // up_threshold = 80

  exp::ScenarioSpec bad = good;
  bad.id = "bad";
  bad.config.governor_tunables = {{"ondemand/no_such_attr", "1"}};

  exp::RunOptions ro;
  ro.seeds = {9000};
  const exp::ResultSet rs = exp::run_grid(std::vector<exp::ScenarioSpec>{good, bad}, ro);
  ASSERT_EQ(rs.all().size(), 2u);
  EXPECT_TRUE(rs.all().at(0).ok());
  EXPECT_TRUE(rs.all().at(0).run0().finished);
  ASSERT_EQ(rs.all().at(1).failures.size(), 1u);
  EXPECT_NE(rs.all().at(1).failures[0].message.find("governor tunable"), std::string::npos)
      << rs.all().at(1).failures[0].message;
}

}  // namespace
}  // namespace vafs::tune
