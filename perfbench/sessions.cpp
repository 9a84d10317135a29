#include "sessions.h"

#include <utility>

#include "core/session_instance.h"
#include "exp/runner.h"

namespace perfbench {

namespace {

class TimedStream final : public core::DecisionStream {
 public:
  TimedStream(std::unique_ptr<core::DecisionStream> inner, TimedBackend* owner, bool record,
              const core::DecisionStreamInfo& info)
      : inner_(std::move(inner)), owner_(owner), record_(record) {
    if (record_) recording_.info = info;
  }
  ~TimedStream() override { owner_->retire(std::move(samples_), std::move(recording_)); }

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    const std::int64_t t0 = now_ns();
    const core::DecisionResponse response = inner_->decide(request);
    samples_.add(now_ns() - t0);
    if (record_) {
      recording_.requests.push_back(request);
      recording_.responses.push_back(response);
    }
    return response;
  }

 private:
  std::unique_ptr<core::DecisionStream> inner_;
  TimedBackend* owner_;
  const bool record_;
  Samples samples_;
  Recording recording_;
};

// The governors of the T1 grid; per-governor loop cost is reported for each
// (0 where a workload does not run that governor).
const char* const kGovernors[] = {"performance", "ondemand", "interactive", "conservative",
                                  "schedutil",   "powersave", "vafs",       "vafs-oracle"};

}  // namespace

std::unique_ptr<core::DecisionStream> TimedBackend::open(const core::DecisionStreamInfo& info) {
  return std::make_unique<TimedStream>(local_.open(info), this, record_, info);
}

void TimedBackend::retire(Samples&& samples, Recording&& recording) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.append(samples);
  if (record_) recordings_.push_back(std::move(recording));
}

Samples TimedBackend::take_samples() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(samples_, Samples{});
}

std::vector<Recording> TimedBackend::take_recordings() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(recordings_, {});
}

std::vector<Cell> grid_cells(const std::vector<exp::ScenarioSpec>& scenarios,
                             const std::vector<std::uint64_t>& seeds) {
  std::vector<Cell> cells;
  cells.reserve(scenarios.size() * seeds.size());
  for (const auto& spec : scenarios) {
    for (std::uint64_t seed : seeds) cells.push_back(Cell{&spec, seed});
  }
  return cells;
}

std::uint64_t chain_of(const std::vector<std::uint64_t>& digests) {
  std::uint64_t chain = 0;
  for (std::uint64_t d : digests) chain = obs::chain_digest(chain, d);
  return chain;
}

TracedPass trace_cells(const std::vector<Cell>& cells, SpanLog& spans, Report& report) {
  TracedPass pass;
  pass.cells.resize(cells.size());
  TimedBackend traced_backend;
  TimedBackend plain_backend;
  // One arena per kind of run, each walking the cells in order as one
  // runner call does, so all three see the same content-cache behaviour.
  core::SessionArena traced_arena, untraced_arena, task_arena;

  // 1. The session with its digest tracer, one span per library call.
  const auto traced = [&](std::size_t i, const core::SessionConfig& config) {
    CellTrace& out = pass.cells[i];
    obs::Tracer tracer(obs::Tracer::Config{0});
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    hooks.decision_backend = &traced_backend;
    const std::int32_t root = spans.begin("session", SpanLog::kNoParent, i);
    std::int32_t span = spans.begin("core.bringup", root, i);
    auto instance = std::make_unique<core::SessionInstance>(config, hooks, &traced_arena);
    spans.end(span);
    out.bringup_ns = spans.duration_ns(span);
    span = spans.begin("core.loop", root, i);
    while (instance->step_one()) {
    }
    spans.end(span);
    out.loop_ns = spans.duration_ns(span);
    span = spans.begin("core.finish", root, i);
    const core::SessionResult result = instance->finish();
    spans.end(span);
    out.finish_ns = spans.duration_ns(span);
    span = spans.begin("core.teardown", root, i);
    instance.reset();
    spans.end(span);
    out.teardown_ns = spans.duration_ns(span);
    spans.end(root);
    out.session_ns = spans.duration_ns(root);
    out.digest = result.trace_digest;
    out.events = result.sim_events;
    report.check(result.finished, cells[i].spec->id + ": traced session did not finish");
  };
  // 2. The same session with no tracer: the loop-time difference is the
  // digest tracer's cost.
  const auto untraced = [&](std::size_t i, const core::SessionConfig& config) {
    core::SessionHooks hooks;
    hooks.decision_backend = &plain_backend;
    core::SessionInstance instance(config, hooks, &untraced_arena);
    const std::int64_t l0 = now_ns();
    while (instance.step_one()) {
    }
    pass.cells[i].loop_untraced_ns = now_ns() - l0;
    pass.cells[i].untraced_events = instance.finish().sim_events;
  };
  // 3. The same cell through the task entry point both runners call.
  const auto task = [&](std::size_t i) {
    core::SessionHooks hooks;
    hooks.decision_backend = &plain_backend;
    const std::int32_t span = spans.begin("exp.run_one_task", SpanLog::kNoParent, i);
    const exp::TaskOutcome outcome =
        exp::run_one_task(*cells[i].spec, cells[i].seed, hooks, /*trace=*/true, &task_arena);
    spans.end(span);
    pass.cells[i].task_ns = spans.duration_ns(span);
    pass.cells[i].task_digest = outcome.result.trace_digest;
    report.check(outcome.ok(), outcome.error);
  };

  // The three runs of a cell follow each other, in an order that rotates
  // from cell to cell, so host-speed drift hits all three alike.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    pass.cells[i].governor = cell.spec->config.governor;
    core::SessionConfig config = cell.spec->config;
    config.seed = cell.seed;
    try {
      for (std::size_t k = 0; k < 3; ++k) {
        switch ((i + k) % 3) {
          case 0: traced(i, config); break;
          case 1: untraced(i, config); break;
          default: task(i); break;
        }
      }
      CellTrace& out = pass.cells[i];
      report.check(out.untraced_events == out.events,
                   cell.spec->id + ": untraced session ran a different event count");
      report.check(out.task_digest == out.digest,
                   cell.spec->id + ": run_one_task digest differs from the traced session");
      out.ok = true;
    } catch (const std::exception& e) {
      report.check(false, cell.spec->id + " seed " + std::to_string(cell.seed) + ": " + e.what());
    }
  }
  pass.decide = traced_backend.take_samples();
  return pass;
}

KindCounts count_kinds(const std::vector<Cell>& cells, Report& report) {
  KindCounts counts;
  core::SessionArena arena;
  for (const Cell& cell : cells) {
    core::SessionConfig config = cell.spec->config;
    config.seed = cell.seed;
    obs::Tracer tracer(obs::Tracer::Config{std::size_t{1} << 22});
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    try {
      const core::SessionResult result = core::run_session(config, hooks, &arena);
      report.check(tracer.dropped() == 0,
                   cell.spec->id + ": full-ring tracer dropped events; counts would be partial");
      for (std::size_t i = 0; i < tracer.size(); ++i) {
        counts.by_kind[static_cast<std::size_t>(tracer.event(i).kind)] += 1;
      }
      counts.sim_events += result.sim_events;
      counts.digests.push_back(result.trace_digest);
    } catch (const std::exception& e) {
      report.check(false, cell.spec->id + ": " + e.what());
    }
  }
  return counts;
}

void report_session_layers(Report& report, TracedPass& pass, const KindCounts& counts,
                           bool coverage_required) {
  if (pass.cells.empty()) return;
  const double n = static_cast<double>(pass.cells.size());
  Samples bringup, finish, teardown;
  std::vector<double> task_overhead_us;
  double loop_ns = 0, loop_untraced_ns = 0, events = 0;
  for (const CellTrace& c : pass.cells) {
    if (!c.ok) continue;
    bringup.add(c.bringup_ns);
    finish.add(c.finish_ns);
    teardown.add(c.teardown_ns);
    task_overhead_us.push_back(static_cast<double>(c.task_ns - c.session_ns) * 1e-3);
    loop_ns += static_cast<double>(c.loop_ns);
    loop_untraced_ns += static_cast<double>(c.loop_untraced_ns);
    events += static_cast<double>(c.events);
  }
  report_latency(report, "core.bringup_us", bringup, 1e-3, "us", LatencyKind::kLayer);
  report.metric("core.finish_us", finish.quantile_ns(0.5) * 1e-3, "us");
  report.metric("core.teardown_us", teardown.quantile_ns(0.5) * 1e-3, "us");
  report.metric("core.loop_ns_per_event", events > 0 ? loop_ns / events : 0.0, "ns");
  for (const char* governor : kGovernors) {
    double g_loop = 0, g_events = 0;
    for (const CellTrace& c : pass.cells) {
      if (c.ok && c.governor == governor) {
        g_loop += static_cast<double>(c.loop_ns);
        g_events += static_cast<double>(c.events);
      }
    }
    report.metric(std::string("core.loop_ns_per_event.") + governor,
                  g_events > 0 ? g_loop / g_events : 0.0, "ns");
  }
  report.metric("simcore.events_per_session", static_cast<double>(counts.sim_events) / n, "count");
  report.metric("simcore.events_per_s", loop_ns > 0 ? events / (loop_ns * 1e-9) : 0.0, "1/s");
  const double decide_calls = static_cast<double>(pass.decide.size());
  report_latency(report, "core.decide_ns", pass.decide, 1.0, "ns", LatencyKind::kLayer);
  report.metric("core.decide_calls_per_session", decide_calls / n, "count");
  report.metric("obs.digest_ns_per_event",
                events > 0 ? (loop_ns - loop_untraced_ns) / events : 0.0, "ns");
  report.metric("exp.task_overhead_us", median(task_overhead_us), "us");

  const auto per_session = [&](obs::EventKind kind) {
    return static_cast<double>(counts.by_kind[static_cast<std::size_t>(kind)]) / n;
  };
  report.metric("governors.samples_per_session", per_session(obs::EventKind::kGovernorSample), "count");
  report.metric("cpu.freq_changes_per_session", per_session(obs::EventKind::kFreqChange), "count");
  report.metric("stream.decodes_per_session", per_session(obs::EventKind::kDecodeEnd), "count");
  report.metric("stream.frame_drops_per_session", per_session(obs::EventKind::kFrameDrop), "count");
  report.metric("core.vafs_plans_per_session", per_session(obs::EventKind::kVafsPlan), "count");
  report.metric("sysfs.setspeed_writes_per_session", per_session(obs::EventKind::kSetspeedWrite),
                "count");
  report.metric("net.attempts_per_session", per_session(obs::EventKind::kAttemptBegin), "count");
  report.metric("net.retries_per_session", per_session(obs::EventKind::kRetryBackoff), "count");

  // Coverage: the four session-layer spans against the runners' per-session
  // entry point for the same sessions, run right next to them.
  double covered_ns = 0, task_ns = 0;
  for (const CellTrace& c : pass.cells) {
    if (!c.ok) continue;
    covered_ns += static_cast<double>(c.bringup_ns + c.loop_ns + c.finish_ns + c.teardown_ns);
    task_ns += static_cast<double>(c.task_ns);
  }
  const double coverage = task_ns > 0 ? covered_ns / task_ns : 0.0;
  report.metric("core.span_coverage", coverage, "ratio");
  if (coverage_required) {
    report.check(coverage >= 0.9, "session-layer spans cover " + std::to_string(coverage) +
                                      " of session host time, below 0.9");
  }
}

}  // namespace perfbench
