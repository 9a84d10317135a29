// Checkpoint manifests for resumable fleet runs.
//
// A manifest captures the fold state at a shard boundary: how many shards
// (and tasks) have been folded, every scenario's partial Aggregate, the
// running trace-digest chain, the failure and quarantine lists and the
// spool/quarantine-log offsets. The format is records of the fleet record
// codec (fleet/record.h, schema v2); doubles are serialized as IEEE-754
// hex bit patterns so a write → read round trip is bit-exact — an
// aggregate restored from a manifest continues folding exactly as the
// uninterrupted run would have.
//
// Integrity: the file is sealed (fleet::write_sealed): its last line
// carries an FNV-1a digest of every byte before it. A truncated, padded or
// bit-flipped manifest fails that check, and a sealed one whose counts,
// ranges or record order are wrong fails the parse; either is rejected
// with a pointed error instead of resuming from garbage.
// Durability: the body is written to a sibling .tmp with every write()
// return checked, fsync'd, renamed into place, and the directory fsync'd —
// a kill or ENOSPC at any byte leaves the previous manifest intact and is
// reported as a clean refusal (fleet/io.h injects those faults in tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/aggregate.h"

namespace vafs::fleet {

/// v2 adds the quarantine list + quarantine-log offset (supervised runs);
/// plain in-process runs write both empty. v1 manifests are refused.
inline constexpr int kCheckpointSchema = 2;

/// One failed task, in canonical task order (mirrors exp::RunFailure but
/// keyed by absolute task index so it survives resharding of the report).
struct CheckpointFailure {
  std::uint64_t task_index = 0;
  std::uint64_t seed = 0;
  std::string message;
};

/// One quarantined task (supervised runs only): a task whose worker died
/// max_task_attempts times, excluded from aggregates and the digest chain.
/// Mirrors the quarantine.jsonl record so a resumed supervisor can report
/// previously-quarantined tasks without re-parsing the log.
struct CheckpointQuarantine {
  std::uint64_t task_index = 0;
  std::uint64_t seed = 0;
  std::uint64_t attempts = 0;
  /// Comma-joined per-attempt fate taxonomy, e.g. "crash:SIGSEGV,exit:41".
  std::string fates;
  /// Captured stderr of the final attempt's worker (bounded tail).
  std::string stderr_tail;
  /// Last obs checkpoint window the worker reported for the in-flight
  /// task: events recorded and streaming digest at the last 64-event
  /// tracer checkpoint before death.
  std::uint64_t last_trace_events = 0;
  std::uint64_t last_trace_digest = 0;
};

struct CheckpointState {
  std::uint64_t fingerprint = 0;
  std::uint64_t shards_done = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t digest_chain = 0;
  /// Bytes of finalized spool rows at the cut; a resume truncates the
  /// spool file back to this offset before appending.
  std::uint64_t spool_offset = 0;
  /// Bytes of finalized quarantine.jsonl records at the cut (same
  /// truncate-on-resume contract as the spool).
  std::uint64_t quarantine_offset = 0;
  /// One partial aggregate per scenario, grid order.
  std::vector<exp::Aggregate> aggregates;
  std::vector<CheckpointFailure> failures;
  /// Quarantined tasks folded so far, canonical task order.
  std::vector<CheckpointQuarantine> quarantined;
};

/// Serializes `state` to `path` atomically and durably (tmp + fsync +
/// rename + directory fsync). Returns false and fills `error` on any I/O
/// failure — the previous manifest at `path`, if any, is left intact.
bool write_checkpoint(const std::string& path, const CheckpointState& state, std::string* error);

/// Parses `path` into `state`. Returns false with a descriptive `error`
/// for I/O failures, schema mismatches, truncation or corruption.
bool read_checkpoint(const std::string& path, CheckpointState* state, std::string* error);

}  // namespace vafs::fleet
