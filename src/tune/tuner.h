// Closed-loop governor auto-tuning on the fleet runner (ROADMAP item 3).
//
// run_tuner searches a ParamSpace for the energy-minimal configuration
// subject to QoE constraints, independently per tuning cell (device
// profile × network class). The search is successive halving with
// seed-count escalation — a sampled population is screened on few seeds,
// survivors are promoted rung by rung to the full seed budget — followed
// by a compass (coordinate-descent) refinement stage and an optional
// per-dimension sensitivity sweep around the winner.
//
// Determinism contract: every candidate list is generated single-threaded
// as a pure function of (search seed, prior round scores); parallelism
// lives only inside fleet evaluation rounds, which are bit-identical at
// any --jobs/--shards; and all comparisons go through the
// canonical total order below. Same seed ⇒ byte-identical artifacts at
// any job count (DESIGN.md §12).
//
// Kill/resume: with a checkpoint directory set, completed rounds land in
// a durable state file (write_file_durable, FNV-checksummed like the
// fleet manifest) and the in-flight round checkpoints through the fleet
// v2 manifest layer in a per-round subdirectory. A resumed search replays
// recorded rounds without re-running a session, fleet-resumes the
// interrupted round mid-shard, and produces byte-identical artifacts to a
// search that was never killed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/session.h"
#include "exp/json.h"
#include "tune/param_space.h"

namespace vafs::tune {

/// QoE floors a tuned config must respect. A candidate violating any of
/// them is infeasible and dominated by every feasible point regardless of
/// how little energy it burns.
struct Constraints {
  /// Mean stall seconds per wall-clock second (rebuffer_s / wall_s).
  double max_rebuffer_ratio = 0.01;
  /// Mean dropped-frame percentage.
  double max_drop_pct = 2.0;
  /// Mean startup delay, seconds.
  double max_startup_s = 5.0;
  /// Mean delivered bitrate floor, kbps; <= 0 disables.
  double min_bitrate_kbps = 0.0;
  /// Worst-seed guard: max over seeds of rebuffer seconds; <= 0 disables.
  /// This is what the low-seed screens can miss and the full-seed rungs
  /// are for — a config that is frugal on average but stalls badly on one
  /// network realisation.
  double max_guard_rebuffer_s = 0.0;
};

/// One tuning cell: the device/network/governor context a config is tuned
/// for. `profile` is a device-registry name ("" = the legacy default
/// device); `net_label` names the network class in artifacts.
struct TuneContext {
  std::string name;  // "flagship/fair" — artifact key and round-tag stem
  std::string profile;
  std::string net_label = "fair";
  core::NetProfile net = core::NetProfile::kFair;
  std::string governor = "vafs";
  Constraints constraints;
};

/// The constraint-aware objective of one evaluated candidate.
struct Score {
  bool evaluated = false;
  bool feasible = false;
  /// Sum of relative constraint excesses; failed or capped-out sessions
  /// add a large penalty so broken configs sort after merely-stalling
  /// ones. 0 ⇔ feasible.
  double violation = 0.0;
  double energy_mj = 0.0;  // objective: mean total energy
  double rebuffer_ratio = 0.0;
  double drop_pct = 0.0;
  double startup_s = 0.0;
  double bitrate_kbps = 0.0;
  double guard_rebuffer_s = 0.0;  // max over seeds
  std::int64_t runs = 0;
  std::int64_t failures = 0;
};

/// The canonical strict total order on evaluated candidates: feasible
/// before infeasible, then violation ascending, then energy ascending,
/// then lexicographic candidate index. Every tuner decision (survivor
/// selection, refinement acceptance, the final winner) goes through this
/// comparison, so the result is unique — independent of evaluation order,
/// job count, shard size, or which of two equal-energy points a thread
/// happened to finish first (DESIGN.md §12).
bool better(const Score& a, const Candidate& ca, const Score& b, const Candidate& cb);

struct TunerOptions {
  /// Seeds the candidate sampler (TunerRng). The whole search trajectory
  /// is a pure function of this plus the evaluation results.
  std::uint64_t search_seed = 1;
  /// Evaluation seeds are eval_seed_base + j, j = 0..seeds-1; rungs share
  /// the prefix so a promoted candidate's cheap screen used a subset of
  /// the seeds its full evaluation uses.
  std::uint64_t eval_seed_base = 9000;

  /// Rung-0 population (sampled; exhaustive when the space is smaller).
  int initial_candidates = 16;
  /// Survivor divisor per rung: n_{r+1} = max(1, ceil(n_r / eta)).
  int eta = 4;
  /// Seeds per rung; the last entry is the full seed budget used by the
  /// refinement and sensitivity stages. Must be non-empty and ascending.
  std::vector<int> seed_schedule = {2, 4, 8};
  /// Compass refinement passes over ±1-step axis neighbours of the
  /// incumbent at full seeds; a pass that fails to strictly improve ends
  /// the stage.
  int refine_passes = 8;
  /// Emit the per-dimension landscape through the winner (full seeds).
  bool sensitivity = true;

  /// Base session config for every evaluation (media length, ABR, player
  /// ...); profile/net/governor are overridden per cell and the candidate
  /// knobs are applied on top.
  core::SessionConfig base;

  // Execution (must not affect results, only wall-clock).
  int jobs = 1;
  std::size_t shard_size = 16;

  /// Directory for the tuner state file + per-round fleet manifests;
  /// empty disables search checkpointing. Created if missing.
  std::string checkpoint_dir;
  /// Resume from checkpoint_dir's state file (fresh start if none; hard
  /// error if it exists but is corrupt or for a different space/options).
  bool resume = false;

  /// Polled between rounds and per folded fleet shard; return false to
  /// stop cleanly with report.stopped = true after a final state write.
  std::function<bool()> keep_going;
};

/// The tuned result of one cell.
struct CellResult {
  TuneContext ctx;
  Candidate best;
  std::vector<double> best_values;  // one per ParamSpace dimension
  Score best_score;
  /// Sessions evaluated for this cell (candidates × seeds, summed).
  std::uint64_t sessions = 0;

  /// One sensitivity-sweep point: dimension d swept through the winner
  /// with every other knob held at the tuned value.
  struct SensitivityPoint {
    std::uint32_t dim = 0;
    std::uint32_t index = 0;
    double value = 0.0;
    Score score;
  };
  std::vector<SensitivityPoint> sensitivity;
};

struct TuneReport {
  std::vector<CellResult> cells;
  /// FNV fold of every round's tag, candidate list and score bits in
  /// execution order — the search trajectory as one number. Equal
  /// digests ⇒ the searches took identical paths.
  std::uint64_t trajectory_digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rounds_replayed = 0;  // satisfied from the state file
  std::uint64_t sessions = 0;         // includes replayed rounds' sessions
  bool stopped = false;               // keep_going() ended the search early
  std::string error;

  bool ok() const { return error.empty(); }
  bool complete() const { return ok() && !stopped; }
};

/// One evaluation round: score these candidates on these seeds. The
/// candidate list is sorted lexicographically and duplicate-free; `tag`
/// is unique per round within a search and names the round's fleet
/// checkpoint subdirectory.
struct RoundRequest {
  const ParamSpace* space = nullptr;
  const TuneContext* ctx = nullptr;
  std::string tag;
  std::vector<Candidate> candidates;
  std::vector<std::uint64_t> seeds;
};

struct RoundResult {
  std::vector<Score> scores;  // parallel to RoundRequest::candidates
  bool stopped = false;
  std::string error;
};

/// Evaluation seam. The default (FleetEvaluator inside run_tuner) runs
/// real sessions through fleet::run_fleet; tests substitute synthetic
/// landscapes to probe search behaviour cheaply, and the fuzzer installs
/// a bounds-asserting evaluator.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual RoundResult evaluate(const RoundRequest& req) = 0;
};

/// Runs the full search over every cell. With `evaluator` null the real
/// fleet-backed evaluator is used (the only mode that checkpoints
/// in-flight rounds through fleet manifests; a custom evaluator still
/// gets completed-round replay from the tuner state file).
TuneReport run_tuner(const ParamSpace& space, const std::vector<TuneContext>& contexts,
                     const TunerOptions& opts, Evaluator* evaluator = nullptr);

/// The tuned_configs.json artifact: one entry per cell with the winning
/// knob values, its objective/constraint readings and feasibility.
/// Deterministic member order and number rendering — byte-comparable.
exp::Json tuned_configs_json(const ParamSpace& space, const std::vector<TuneContext>& contexts,
                             const TunerOptions& opts, const TuneReport& report);

/// The sensitivity-landscape CSV (one row per swept point per cell).
std::string sensitivity_csv(const ParamSpace& space, const TuneReport& report);

}  // namespace vafs::tune
