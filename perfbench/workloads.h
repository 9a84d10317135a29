// The three benchmark workloads and the per-layer reports they share.
#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

/// The seed whose digest chains are pinned in the sources (t1_grid.cpp,
/// fleet_mix.cpp); any other seed is checked for repeatability only.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for sockets, spools and spans.
  std::string scratch_dir;
  Clock::time_point process_start;
};

void run_t1_grid(const Args& args, Report& report, SpanLog& spans);
void run_fleet_mix(const Args& args, Report& report, SpanLog& spans);
void run_serve_open(const Args& args, Report& report, SpanLog& spans);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRuns = 7;

/// Fleet-layer measurements of a traced run; default-constructed (all
/// zero) on workloads that do not run the fleet.
struct FleetLayers {
  double parallel_efficiency = 0.0;
  Samples fold_gap;  // ns between successive on_progress calls
  double io_bytes_per_session = 0.0;
  double io_writes = 0.0;
  double io_fsyncs = 0.0;
};
void report_fleet_layers(Report& report, FleetLayers& layers);

/// Serving-layer measurements of a traced run; all zero on workloads that
/// do not serve.
struct ServeLayers {
  Samples rtt_due_r20k;  // reply time minus due time, 20k decisions/s
  Samples rtt_due_r60k;  // the same at 60k decisions/s
  Samples rtt_send;      // reply time minus actual send time, 20k decisions/s
  Samples lag;           // actual send minus due time, both open-loop phases
  double decide_p50_ns = 0.0;  // in-process DecisionStream::decide median
  double backlog_max = 0.0;
  double decisions_per_s_closed = 0.0;
  double requests = 0.0;
  double protocol_errors = 0.0;
  double connections_rejected = 0.0;
};
void report_serve_layers(Report& report, ServeLayers& layers);

}  // namespace perfbench
