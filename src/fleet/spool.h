// Bounded per-session row spool (schema v1).
//
// Fleet runs don't keep SessionResults: each folded task may append one
// long-format row per selected metric to a spool file instead. The spool
// holds a small staging buffer (flushed on overflow and at checkpoints),
// so its memory is O(buffer), never O(sessions). Rows are written in fold
// order — canonical task order — which makes the file deterministic and
// resumable: a checkpoint records the spool byte offset at its shard
// boundary, and a resumed run truncates the file back to that offset
// before appending, reproducing the uninterrupted file byte for byte.
//
// Schema v1, CSV:   scenario,seed,metric,value  (header row included)
// Schema v1, JSONL: {"scenario":...,"seed":N,"digest":"<hex16>",
//                   "metrics":{...}} per session ("digest" is the
//                   session's trace digest, 0 when tracing is off — the
//                   per-stream ground truth the nightly daemon-kill leg
//                   compares survivors against);
//                   {"scenario":...,"seed":N,"failed":true} for failures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/grid.h"

namespace vafs::fleet {

enum class SpoolFormat : std::uint8_t { kNone, kCsv, kJsonl };

struct SpoolOptions {
  SpoolFormat format = SpoolFormat::kNone;
  std::string path;
  /// Metrics spooled per session (long format). The default keeps the
  /// common energy/QoE columns; a million-session run at 4 metrics/row is
  /// a few hundred MB of CSV, so keep this list tight at fleet scale.
  std::vector<std::string> metrics = {"total_mj", "rebuffer_s", "mean_bitrate_kbps", "wall_s"};
  /// Staging-buffer flush threshold, bytes.
  std::size_t buffer_bytes = 1 << 16;
};

class Spool {
 public:
  Spool() = default;
  ~Spool();

  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  /// Opens (or, resuming, truncates to `resume_offset` and reopens) the
  /// spool file. A fresh run writes the CSV header; a resume never does.
  /// No-op success when options.format == kNone.
  bool open(const SpoolOptions& options, std::uint64_t resume_offset, std::string* error);

  bool enabled() const { return file_ != nullptr; }

  /// Appends one session's rows (buffered; deterministic content) from
  /// its exp::kMetricCount value vector (Aggregate::session_values, also
  /// the supervisor wire format) and its trace digest.
  void append_values(const exp::ScenarioSpec& spec, std::uint64_t seed, const double* values,
                     std::uint64_t digest);
  /// Appends a failure marker row for a task that threw.
  void append_failure(const exp::ScenarioSpec& spec, std::uint64_t seed);

  /// Bytes of finalized rows so far (buffered + written) — the offset a
  /// checkpoint records. flush() before checkpointing so the file itself
  /// is at least this long on disk.
  std::uint64_t offset() const { return offset_; }
  bool flush(std::string* error);
  /// flush + fsync: everything appended so far is durable. Called before
  /// each checkpoint manifest write so the recorded offset never points
  /// past what a power loss could preserve.
  bool sync(std::string* error);
  /// Flushes and closes; returns false on a write error.
  bool close(std::string* error);

 private:
  void append_row(std::string row);

  SpoolOptions options_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t offset_ = 0;
  bool write_failed_ = false;
  /// options_.metrics resolved to Aggregate metric-table indices at open()
  /// (npos-equivalent kMetricCount for unknown names → 0.0 rows).
  std::vector<std::size_t> metric_indices_;
};

}  // namespace vafs::fleet
