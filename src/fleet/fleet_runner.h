// Fleet-scale sharded session runner.
//
// run_fleet executes a scenario × seed grid of any size at bounded memory:
// the grid is cut into deterministic shards (shard_plan.h), shards run as
// chunks of exp::execute_tasks — the executor run_grid uses too — and the
// calling thread folds each shard into a Ledger (ledger.h) *strictly in
// shard-id order*. Because the fold order is the canonical (scenario,
// seed) order and every session folds through Aggregate::add_values, the
// final aggregates are bit-identical to a serial exp::run_grid over the
// same grid — any job count, any interleaving.
//
// Memory never holds more than (2 * jobs + 2) + jobs shards of
// SessionResults: workers stall before *starting* a new shard while the
// reorder buffer is full. O(shards outstanding), never O(sessions).
//
// Kill/resume: with a checkpoint directory set, the ledger writes a
// manifest (checkpoint.h) every checkpoint_every_shards folds and on
// clean stops. A resumed run restores the aggregates, digest chain,
// failure list and spool offset bit-exactly and re-runs only the shards
// past the frontier — the final state is bit-identical to a run that was
// never killed, at any kill point, repeatedly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/aggregate.h"
#include "exp/grid.h"
#include "fleet/checkpoint.h"
#include "fleet/spool.h"

namespace vafs::fleet {

struct FleetOptions {
  /// Worker threads; <= 1 still uses one worker thread (the calling
  /// thread folds).
  int jobs = 1;
  std::vector<std::uint64_t> seeds = {101, 202, 303};
  /// Sessions per shard (the checkpoint/fold granularity).
  std::size_t shard_size = 64;

  /// Directory for the checkpoint manifest; empty disables checkpointing.
  /// Created if missing.
  std::string checkpoint_dir;
  /// Manifest rewrite cadence, in folded shards.
  std::uint64_t checkpoint_every_shards = 64;
  /// Resume from checkpoint_dir's manifest (fresh start if none exists;
  /// hard error if one exists but is corrupt or for a different grid).
  bool resume = false;

  /// Attach a digest-only tracer per session and chain the per-session
  /// digests in fold order (the fingerprint kill/resume runs compare).
  bool trace = true;

  /// Per-task cooperative wall-clock deadline, 0 = unlimited
  /// (SessionConfig::task_timeout_ms): an over-budget session becomes a
  /// captured task failure instead of wedging its worker.
  std::int64_t task_timeout_ms = 0;

  /// Optional per-session row spool. With an empty path and a checkpoint
  /// directory set, the spool lands next to the manifest.
  SpoolOptions spool;

  /// Fires on the folding thread after every folded shard. Return false
  /// to stop cleanly: a final checkpoint is written and the run returns
  /// with stopped = true. bench_fleet routes SIGTERM through this; the
  /// differential tests use it as a deterministic kill switch.
  std::function<bool(std::uint64_t shards_done, std::uint64_t shard_count)> on_progress;

  /// Optional decision backend (not owned, thread-safe, outlives the run)
  /// for every session's VAFS controller — the fleet-as-load-generator
  /// mode: each worker thread drives its own daemon connection. Digest
  /// chains are bit-identical to in-process decisions.
  core::DecisionBackend* decision_backend = nullptr;
};

struct FleetScenario {
  exp::ScenarioSpec spec;
  exp::Aggregate agg;
};

struct FleetResult {
  std::vector<FleetScenario> scenarios;
  /// Failed tasks in canonical task order (resumed + fresh).
  std::vector<CheckpointFailure> failures;
  /// Quarantined tasks carried through from a supervised run's manifest
  /// (run_fleet itself never quarantines; a resume preserves the list so
  /// the manifest round-trips losslessly between the two runners).
  std::vector<CheckpointQuarantine> quarantined;
  /// chain_digest fold of every task's trace digest, canonical order.
  std::uint64_t digest_chain = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t shards_done = 0;      // folded, including resumed shards
  std::uint64_t sessions_run = 0;     // executed by this call
  std::uint64_t sessions_resumed = 0; // restored from the manifest
  /// on_progress ended the run before the last shard folded.
  bool stopped = false;
  /// Non-empty: setup or checkpoint/spool I/O failed; partial results are
  /// whatever had folded by then.
  std::string error;

  bool ok() const { return error.empty(); }
  bool complete() const { return ok() && !stopped && shards_done == shard_count; }
};

FleetResult run_fleet(const std::vector<exp::ScenarioSpec>& scenarios, const FleetOptions& opts);
FleetResult run_fleet(const exp::ExperimentGrid& grid, const FleetOptions& opts);

}  // namespace vafs::fleet
