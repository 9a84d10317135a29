// Measurement primitives shared by the perfbench workloads: clocks, exact
// percentiles over samples kept in memory, an in-memory span log, output
// checks, and the metric report printed as the run's final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time consumed by every thread of this process, in seconds.
double process_cpu_s();

/// Peak resident set of this process, in MiB.
double peak_rss_mib();

/// 64-bit mix used to derive every input of a workload from its seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index);

/// Latency samples in nanoseconds, every one kept. Percentiles are exact
/// (nearest rank over the sorted samples), not binned.
class Samples {
 public:
  void add(std::int64_t ns) {
    values_.push_back(ns <= 0 ? 0u
                              : ns >= 0xffffffffLL ? 0xffffffffu
                                                   : static_cast<std::uint32_t>(ns));
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }

  /// Nearest-rank quantile, q in (0, 1]; 0 without samples.
  double quantile_ns(double q);
  /// The highest percentile that still has at least ten samples beyond
  /// it: the value with exactly ten larger-ranked samples. Returns that
  /// value and its percentile rank (both 0 below eleven samples).
  double tail_ns(double* percentile);

 private:
  void sort_once();
  std::vector<std::uint32_t> values_;
  bool sorted_ = false;
};

double median(std::vector<double> values);

/// Quartile i (1, 2 or 3) of the values, by the same rule as Python's
/// statistics.quantiles(values, n=4); a single value is its own quartile.
double quartile(std::vector<double> values, int i);

/// Spans recorded by the benchmark around calls into the library's public
/// functions: name, start, end, parent span and the session (or stream) it
/// belongs to. Kept in memory and written out when the run ends.
class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  std::int32_t begin(const char* name, std::int32_t parent, std::uint64_t session) {
    spans_.push_back(Span{name, now_ns(), 0, parent, session});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Records a span whose start and end were stamped by the caller.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::int32_t parent,
           std::uint64_t session) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, session});
  }
  /// Moves another log's spans in after this one's, keeping their parents.
  void append(const SpanLog& other);
  std::int64_t duration_ns(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
  }

  struct Totals {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // duration minus the time its child spans cover
  };
  /// Per-name totals and self time, in first-seen order.
  std::vector<Totals> totals() const;

  /// Writes one CSV row per span; false if the file cannot be written.
  bool write_csv(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t session;
  };
  std::vector<Span> spans_;
};

/// The run's outcome: attempted / failed operations, failed checks, and the
/// named metrics. print() writes the human-readable table and, as the last
/// line of stdout, the JSON object the benchmark contract defines.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// A figure shown in the table only (not part of the JSON metrics).
  void note(const std::string& name, double value, const char* unit);

  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail_ops(std::uint64_t n) { failed_ += n; }
  /// Records a failed output check; it counts as a failed operation.
  void check(bool ok, const std::string& what);

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    bool json;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Times one run of a fixed kernel owned by the benchmark and shaped like
/// the simulator's hot loop: a binary heap of timed events whose handlers
/// update random slots of a 4 MiB table. The library never runs it, so its
/// time depends only on how fast the host is at that moment.
double calibration_s();

/// The timed units of one end-to-end run.
///
/// Co-tenants on a shared host slow whole stretches of a run by 30-70%
/// (their cache and memory-bandwidth use), so two things keep the figures
/// steady. Within a run, the figures come from the undisturbed side of the
/// per-unit distribution: the third quartile of per-unit rates and the
/// first quartile of per-unit costs and latency percentiles. Across runs, a
/// single-threaded workload's times can be scaled to a reference host speed
/// by the calibration kernel, timed next to each unit: a host that is slow
/// for the kernel is slow for the simulation too, and the kernel is not
/// library code, so a change to the library still moves the figures. The
/// table also shows the raw and pooled figures.
class Units {
 public:
  /// `calibration_ref_s` is the calibration kernel's time on an undisturbed
  /// reference host; figures are scaled as if the host ran at that speed.
  /// 0 reports every figure unscaled.
  explicit Units(double calibration_ref_s) : calibration_ref_s_(calibration_ref_s) {}

  /// One unit of throughput work: `sessions` finished in `wall_s` of host
  /// time using `cpu_s` of process CPU time.
  void add_work(double wall_s, double cpu_s, double sessions);
  /// One unit's decision latencies (all kept for the pooled table figures).
  void add_latencies(Samples& samples);
  /// One calibration_s() result, taken next to a unit.
  void add_calibration(double seconds) { calibration_s_.push_back(seconds); }
  /// One set-up repetition and the calibration_s() result taken right
  /// after it (set-up is short, so it gets its own host-speed scaling).
  void add_setup(double seconds, double calibration) {
    setup_s_.push_back(seconds);
    setup_scaled_s_.push_back(calibration_ref_s_ > 0 ? seconds * calibration_ref_s_ / calibration
                                                     : seconds);
  }

  /// Reports sessions_per_s, cpu_ms_per_session, decide_us.p50/.p95,
  /// setup_s (median over the set-up repetitions) and peak_rss_mib; the
  /// same first quartile of the units' p99 is a table figure.
  void report(Report& report, double rss_mib);

 private:
  const double calibration_ref_s_;
  std::vector<double> rates_, cpu_ms_, lat_p50_ns_, lat_p95_ns_, lat_p99_ns_,
      calibration_s_;
  std::vector<double> setup_s_, setup_scaled_s_;
  std::size_t min_unit_samples_ = ~std::size_t{0};
  Samples pooled_;
};

enum class LatencyKind {
  /// `<base>.p50` and `<base>.tail` (the highest percentile with ten
  /// samples beyond it) as metrics — for per-layer samples whose count is
  /// fixed by the workload and may be small.
  kLayer,
  /// Table figures only: p50, p99, the tail percentile and the count.
  kTable,
};

/// Exact percentiles of one sample set; the table also shows the highest
/// percentile with ten samples beyond it and the sample count. `scale`
/// converts nanoseconds to `unit`.
void report_latency(Report& report, const std::string& base, Samples& samples, double scale,
                    const char* unit, LatencyKind kind);

}  // namespace perfbench
