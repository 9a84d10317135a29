// The benchmark's own session driver and decision backend.
//
// TimedBackend answers VAFS decisions in-process, exactly as
// core::LocalDecisionBackend does, and times every DecisionStream::decide
// call; it can also record each stream's requests and replies so serve_open
// can replay them against the daemon.
//
// trace_cells() is the traced run's view of a grid: it drives each cell
// through the same construct / step / finish / destroy sequence that
// core::run_session performs, with a span around each call, then runs the
// cell again without a tracer and once more through exp::run_one_task, so
// the digest tracer's and the task wrapper's costs can be told apart from the
// session's own.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decision_core.h"
#include "core/session.h"
#include "exp/grid.h"
#include "measure.h"
#include "obs/trace.h"

namespace perfbench {

namespace core = vafs::core;
namespace exp = vafs::exp;
namespace obs = vafs::obs;

/// One stream's recorded decisions, in the order the session asked them.
struct Recording {
  core::DecisionStreamInfo info;
  std::vector<core::DecisionRequest> requests;
  std::vector<core::DecisionResponse> responses;
};

class TimedBackend final : public core::DecisionBackend {
 public:
  explicit TimedBackend(bool record = false) : record_(record) {}

  /// Thread-safe: each stream keeps its samples to itself and hands them
  /// over when it is destroyed.
  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override;

  /// Samples and recordings of every stream destroyed so far.
  Samples take_samples();
  std::vector<Recording> take_recordings();

  void retire(Samples&& samples, Recording&& recording);

 private:
  core::LocalDecisionBackend local_;
  const bool record_;
  std::mutex mutex_;
  Samples samples_;
  std::vector<Recording> recordings_;
};

/// One (scenario, seed) task of a grid.
struct Cell {
  const exp::ScenarioSpec* spec = nullptr;
  std::uint64_t seed = 0;
};

/// The grid's tasks in the runners' canonical order: scenario-major, seed
/// fastest.
std::vector<Cell> grid_cells(const std::vector<exp::ScenarioSpec>& scenarios,
                             const std::vector<std::uint64_t>& seeds);

/// Digest chain over the per-session digests, in the given order — what
/// fleet::FleetResult::digest_chain holds for the same grid.
std::uint64_t chain_of(const std::vector<std::uint64_t>& digests);

/// Per-cell measurements of one traced pass.
struct CellTrace {
  std::string governor;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::int64_t bringup_ns = 0;
  std::int64_t loop_ns = 0;
  std::int64_t finish_ns = 0;
  std::int64_t teardown_ns = 0;
  std::int64_t session_ns = 0;        // the root span around the four above
  std::int64_t loop_untraced_ns = 0;  // the same loop with no tracer attached
  std::uint64_t untraced_events = 0;
  std::int64_t task_ns = 0;  // exp::run_one_task for the same cell
  std::uint64_t task_digest = 0;
  bool ok = false;
};

struct TracedPass {
  std::vector<CellTrace> cells;
  Samples decide;  // DecisionStream::decide calls of the traced sessions
};

/// Runs every cell three times on the calling thread — traced, untraced
/// and through exp::run_one_task — each kind with its own reused arena, as
/// a one-worker runner does. Failures are reported through `report`.
TracedPass trace_cells(const std::vector<Cell>& cells, SpanLog& spans, Report& report);

/// obs::EventKind counts summed over a pass, with full-ring tracers that
/// hold each whole session.
struct KindCounts {
  std::array<std::uint64_t, obs::kEventKindCount> by_kind{};
  std::uint64_t sim_events = 0;
  std::vector<std::uint64_t> digests;
  bool operator==(const KindCounts& o) const {
    return by_kind == o.by_kind && sim_events == o.sim_events && digests == o.digests;
  }
};
KindCounts count_kinds(const std::vector<Cell>& cells, Report& report);

/// Reports the session-layer metrics of a traced pass plus the kind counts.
/// Session host time is what exp::run_one_task, the per-session entry point
/// of both runners, took for the same sessions; with `coverage_required`,
/// the bring-up + loop + finish + teardown spans must cover at least 90% of
/// it.
void report_session_layers(Report& report, TracedPass& pass, const KindCounts& counts,
                           bool coverage_required);

}  // namespace perfbench
