// Per-scenario aggregate over N seed-varied sessions. Unlike the old
// bench::run_averaged (bare means), every metric carries full dispersion —
// mean / stddev / min / max via sim::OnlineStats — and aggregates merge,
// so partial results from parallel shards combine exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/session.h"
#include "simcore/stats.h"

namespace vafs::exp {

/// Every scalar the evaluation tables draw from a SessionResult. Adding a
/// metric here automatically adds it to add()/merge(), the metric table,
/// and the JSON/CSV sinks.
#define VAFS_EXP_METRICS(X) \
  X(cpu_mj)                 \
  X(radio_mj)               \
  X(display_mj)             \
  X(total_mj)               \
  X(cpu_mean_mw)            \
  X(startup_s)              \
  X(rebuffer_events)        \
  X(rebuffer_s)             \
  X(drop_pct)               \
  X(deadline_misses)        \
  X(quality_switches)       \
  X(mean_bitrate_kbps)      \
  X(transitions)            \
  X(busy_fraction)          \
  X(wall_s)                 \
  X(live_latency_s)         \
  X(radio_promotions)       \
  X(vafs_mape)              \
  X(vafs_plans)             \
  X(vafs_setspeed_writes)   \
  X(peak_temp_c)            \
  X(mean_temp_c)            \
  X(throttled_s)            \
  X(throttle_events)        \
  X(cpu_little_mj)          \
  X(transitions_little)     \
  X(decode_frames_big)      \
  X(decode_frames_little)   \
  X(decode_migrations)      \
  X(fetch_retries)          \
  X(fetch_failures)         \
  X(fetch_timeouts)         \
  X(vafs_fallback_entries)  \
  X(vafs_fallback_s)        \
  X(vafs_sysfs_write_errors)

/// Number of metrics in VAFS_EXP_METRICS — the width of a session's value
/// vector as it crosses the supervisor wire and lands in the spool.
#define VAFS_EXP_COUNT(name) +1
inline constexpr std::size_t kMetricCount = 0 VAFS_EXP_METRICS(VAFS_EXP_COUNT);
#undef VAFS_EXP_COUNT

struct Aggregate {
#define VAFS_EXP_DECLARE(name) sim::OnlineStats name;
  VAFS_EXP_METRICS(VAFS_EXP_DECLARE)
#undef VAFS_EXP_DECLARE

  int runs = 0;
  bool all_finished = true;

  /// Folds one session's scalar outputs into every metric. Implemented as
  /// session_values + add_values so a value vector that crossed a process
  /// boundary folds bit-identically to an in-process SessionResult.
  void add(const core::SessionResult& r);
  /// Extracts the per-metric scalars of one session into out[kMetricCount],
  /// declaration order — the canonical flattening used by add(), the
  /// supervisor wire protocol and the spool. `r` comes from a session, so
  /// it reports at least one cluster.
  static void session_values(const core::SessionResult& r, double* out);
  /// Folds a pre-extracted value vector (from session_values).
  void add_values(const double* values, bool finished);
  /// Exact parallel combine (Chan et al. merge under the hood).
  void merge(const Aggregate& other);

  struct MetricRef {
    const char* name;
    sim::OnlineStats Aggregate::*member;
  };
  /// Stable name -> member table, in declaration order (drives the sinks).
  static const std::vector<MetricRef>& metrics();
};

}  // namespace vafs::exp
