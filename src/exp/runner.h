// Parallel experiment execution. Each (scenario, seed) pair is one task: a
// full core::run_session call, which owns its Simulator / Rng / sysfs tree
// and shares nothing, so tasks run concurrently on a fixed-size thread
// pool. Results land in preallocated slots and are aggregated serially in
// (scenario, seed) order afterwards, so a parallel run is bit-identical to
// a serial one regardless of completion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.h"
#include "exp/aggregate.h"
#include "exp/grid.h"

namespace vafs::exp {

struct RunOptions {
  /// Worker threads; <= 1 runs inline on the calling thread.
  int jobs = 1;
  /// One session per scenario per seed, aggregated in this order.
  std::vector<std::uint64_t> seeds = {101, 202, 303};

  /// Optional probe factory (e.g. timeline recorders). Called once per
  /// task *before* execution starts, from the calling thread; the hooks it
  /// returns fire on the worker running that task, so any state they
  /// capture must not be shared across tasks.
  using HookFactory = std::function<core::SessionHooks(
      const ScenarioSpec& spec, std::size_t scenario_index, std::size_t seed_index)>;
  HookFactory hooks;

  /// Attach a digest-only (allocation-free) tracer to every run whose
  /// hooks did not already provide one, so each SessionResult carries
  /// trace_digest / trace_events in the artifacts.
  bool trace = false;

  /// Optional full-ring tracer (not owned) attached to the single task
  /// (capture_scenario, capture_seed) — the cheap way for a bench to get
  /// one exportable trace out of a grid without buffering every session.
  /// Ignored for tasks whose hooks already provide a tracer.
  obs::Tracer* capture = nullptr;
  std::size_t capture_scenario = 0;
  std::size_t capture_seed = 0;

  /// Per-task wall-clock deadline, 0 = unlimited (SessionConfig::
  /// task_timeout_ms). A deadline-exceeded task becomes a captured
  /// failure — "wall-clock task timeout: ... exceeded" — in the scenario's
  /// failure list and the JSON/CSV artifacts, like any other task error.
  std::int64_t task_timeout_ms = 0;

  /// Optional decision backend (not owned, thread-safe, must outlive the
  /// run) handed to every task whose hooks did not bring their own:
  /// VAFS sessions then get their plans answered by the decision daemon
  /// instead of in-process. Results are bit-identical either way.
  core::DecisionBackend* decision_backend = nullptr;
};

/// One run that threw instead of returning: which seed, and a message
/// already wrapped with scenario + seed context ("scenario 'x' seed 101:
/// what()"), so a log line or JSON entry is self-describing.
struct RunFailure {
  std::size_t seed_index = 0;
  std::uint64_t seed = 0;
  std::string message;
};

/// One scenario's runs (per-seed, in seed order) plus their aggregate.
/// A run that threw (core::SessionError or anything else) leaves its slot
/// default-constructed, lands in `failures`, is skipped by `agg`, and
/// clears agg.all_finished — the grid keeps going instead of aborting.
struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<std::uint64_t> seeds;
  std::vector<core::SessionResult> runs;
  std::vector<RunFailure> failures;  // in seed order (deterministic)
  Aggregate agg;

  bool ok() const { return failures.empty(); }

  /// The first seed's raw result — for per-run values (residency vectors,
  /// setspeed write counts) the old benches took from one representative
  /// run. Default-constructed if that seed's run failed (check failures).
  const core::SessionResult& run0() const { return runs.front(); }
};

class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<ScenarioResult> scenarios)
      : scenarios_(std::move(scenarios)) {}

  const std::vector<ScenarioResult>& all() const { return scenarios_; }
  bool empty() const { return scenarios_.empty(); }

  /// The unique scenario matching every given (axis, value) pair; aborts
  /// if none or several match — table printers want exactly one cell.
  const ScenarioResult& at(
      std::initializer_list<std::pair<std::string_view, std::string_view>> query) const;
  const Aggregate& agg(
      std::initializer_list<std::pair<std::string_view, std::string_view>> query) const {
    return at(query).agg;
  }

 private:
  std::vector<ScenarioResult> scenarios_;
};

/// One executed (scenario, seed) cell. `error` is empty on success and
/// carries the scenario + seed context otherwise; a failed task leaves
/// `result` default-constructed.
struct TaskOutcome {
  core::SessionResult result;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Runs one (scenario, seed) cell exactly as run_grid does: the scenario
/// config stamped with `seed`, a digest-only tracer attached when `trace`
/// is set and the hooks brought none, exceptions captured instead of
/// propagated. This is the shard-safe entry point the fleet runner builds
/// on — any partition of a grid into run_one_task calls produces the same
/// per-cell results as one run_grid call, because cells share nothing.
TaskOutcome run_one_task(const ScenarioSpec& spec, std::uint64_t seed,
                         core::SessionHooks hooks, bool trace, core::SessionArena* arena,
                         std::int64_t task_timeout_ms = 0);

/// Runs scenarios × seeds on a pool of `opts.jobs` threads.
ResultSet run_grid(const std::vector<ScenarioSpec>& scenarios, const RunOptions& opts);
ResultSet run_grid(const ExperimentGrid& grid, const RunOptions& opts);

}  // namespace vafs::exp
