// Process-level supervision for fleet runs.
//
// run_supervised executes the same deterministic ShardPlan as run_fleet,
// but each session runs inside one of N forked worker subprocesses, so a
// crash, hang or OOM kill takes down one worker — not the run. The
// supervisor hands tasks to workers over a pipe protocol (wire.h), folds
// streamed results *strictly in canonical task order*, and keeps the
// fleet alive through arbitrary worker death:
//
//   crash    worker exits on SIGSEGV/SIGBUS/SIGILL/SIGFPE (or SIGABRT)
//            -> detected from the waitpid status, taxonomy recorded
//   hang     heartbeats stop (worker beat thread, heartbeat_interval_ms)
//            -> SIGKILL after heartbeat_timeout_ms of silence
//   stall    heartbeats continue but the in-flight task never finishes
//            -> SIGKILL after task_deadline_ms (when configured)
//   OOM      RLIMIT_AS makes allocations fail inside the worker;
//            worker_rss_limit_mb makes the supervisor SIGKILL over-budget
//            workers (the external-OOM-killer shape)
//
// The worker is respawned after every death and the in-flight task is
// retried, up to max_task_attempts total attempts; a task whose every
// attempt died is *quarantined*: recorded with full context (scenario,
// seed, per-attempt fate taxonomy, captured stderr, last obs checkpoint
// window) in quarantine.jsonl, and excluded explicitly from the digest
// chain, the aggregates and the spool — so the results over the surviving
// task set are bit-identical to a clean serial run over that same set.
// Workers transmit each session's 35 metric values as IEEE-754 bit
// patterns and the fold uses Aggregate::add_values, making the
// cross-process fold bitwise equal to the in-process one.
//
// Only the head of a dead worker's queue — the task it had actually
// begun (B-ack seen) — collects a strike; queued-but-unstarted tasks are
// re-dispatched at the same attempt number. Combined with HarnessChaos
// fates being a pure hash of (seed, task, attempt), the quarantine set is
// a deterministic function of the configuration, independent of worker
// count, scheduling and resume points.
//
// The fold, resume, spool, quarantine log and checkpoint manifest all go
// through the same fleet::Ledger as run_fleet: one manifest writer at one
// shard cadence, so either runner resumes the other's manifest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_runner.h"
#include "obs/trace.h"
#include "supervise/chaos.h"

namespace vafs::supervise {

/// How a worker process left the fleet (exit-status + signal taxonomy;
/// supervisor-initiated kills are classified by *why* we killed).
enum class WorkerFate : std::uint8_t {
  kClean,        ///< exited 0 after Q
  kExit,         ///< exited nonzero on its own
  kCrash,        ///< SIGSEGV / SIGBUS / SIGILL / SIGFPE
  kAbort,        ///< SIGABRT
  kKilled,       ///< other fatal signal (external kill, kernel OOM killer)
  kHangKill,     ///< we killed it: heartbeats stopped
  kDeadlineKill, ///< we killed it: in-flight task exceeded task_deadline_ms
  kRssKill,      ///< we killed it: RSS over worker_rss_limit_mb
};

const char* worker_fate_name(WorkerFate fate);

struct SuperviseOptions {
  /// Worker subprocesses to keep alive.
  int workers = 2;
  /// Hard per-task wall-clock deadline enforced externally (SIGKILL +
  /// retry/quarantine), 0 = off. Independent of the cooperative
  /// FleetOptions::task_timeout_ms, which a wedged session never reaches.
  std::int64_t task_deadline_ms = 0;
  std::int64_t heartbeat_interval_ms = 250;
  std::int64_t heartbeat_timeout_ms = 5000;
  /// Total attempts per task before quarantine.
  int max_task_attempts = 3;
  /// RLIMIT_AS for each worker, MiB; 0 = unlimited. Allocation failure
  /// inside the worker surfaces as bad_alloc -> captured task failure or
  /// worker death, never as a machine-wide OOM.
  std::uint64_t worker_as_limit_mb = 0;
  /// Supervisor-side RSS budget per worker, MiB; 0 = off. Polled from
  /// /proc/<pid>/statm; an over-budget worker is SIGKILLed (kRssKill).
  std::uint64_t worker_rss_limit_mb = 0;

  /// Seeded deterministic fault injection inside workers (test mode).
  ChaosConfig chaos;
  /// Allocation ceiling for the chaos leak fate, MiB — the leaker kills
  /// itself (SIGKILL, mimicking the kernel OOM killer) at this cap even
  /// when no RLIMIT/RSS budget stops it first.
  std::uint64_t chaos_leak_cap_mb = 512;

  /// Quarantine log path; empty uses <checkpoint_dir>/quarantine.jsonl
  /// when checkpointing, else disables the file (records still returned).
  std::string quarantine_path;

  /// Optional tracer (not owned) for worker-lifecycle events on the
  /// harness track, stamped with wall milliseconds since run start.
  obs::Tracer* tracer = nullptr;
};

/// Full context of one quarantined task (also one quarantine.jsonl line).
struct QuarantineRecord {
  std::uint64_t task_index = 0;
  std::uint64_t seed = 0;
  std::string scenario;
  int attempts = 0;
  /// Per-attempt fate taxonomy strings, e.g. "crash:SIGSEGV", "exit:41",
  /// "hang:heartbeat-miss", "deadline:exceeded", "oom:rss-limit".
  std::vector<std::string> fates;
  /// Bounded stderr tail captured from the final attempt's worker.
  std::string stderr_tail;
  /// Last obs checkpoint window the final attempt reported (events
  /// recorded / streaming digest at the last 64-event tracer checkpoint).
  std::uint64_t last_trace_events = 0;
  std::uint64_t last_trace_digest = 0;
};

struct SupervisedResult {
  /// Aggregates, failures, digest chain, shard bookkeeping — the same
  /// shape run_fleet returns, folded over non-quarantined tasks only.
  fleet::FleetResult fleet;
  /// Quarantined tasks in canonical task order (this run's).
  std::vector<QuarantineRecord> quarantine;
  /// Quarantined tasks restored from a resumed manifest (already in
  /// fleet.quarantined; counted here for reporting).
  std::uint64_t quarantined_resumed = 0;

  // Supervision counters.
  std::uint64_t worker_spawns = 0;
  std::uint64_t worker_deaths = 0;   ///< non-clean exits
  std::uint64_t deadline_kills = 0;
  std::uint64_t heartbeat_kills = 0;
  std::uint64_t rss_kills = 0;
  std::uint64_t task_retries = 0;

  bool ok() const { return fleet.ok(); }
};

/// Runs the grid under supervision. FleetOptions supplies the grid shape,
/// sharding, checkpointing, spool and cooperative timeout exactly as for
/// run_fleet (jobs is ignored — SuperviseOptions::workers is the width).
SupervisedResult run_supervised(const std::vector<exp::ScenarioSpec>& scenarios,
                                const fleet::FleetOptions& fopts, const SuperviseOptions& sopts);
SupervisedResult run_supervised(const exp::ExperimentGrid& grid, const fleet::FleetOptions& fopts,
                                const SuperviseOptions& sopts);

}  // namespace vafs::supervise
