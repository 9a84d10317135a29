#include "exp/aggregate.h"

namespace vafs::exp {

void Aggregate::add(const core::SessionResult& r) {
  double values[kMetricCount];
  session_values(r, values);
  add_values(values, r.finished);
}

void Aggregate::session_values(const core::SessionResult& r, double* out) {
  std::size_t i = 0;
  out[i++] = r.energy.cpu_mj;
  out[i++] = r.energy.radio_mj;
  out[i++] = r.energy.display_mj;
  out[i++] = r.energy.total_mj();
  out[i++] = r.energy.cpu_mean_mw();
  out[i++] = r.qoe.startup_delay.as_seconds_f();
  out[i++] = static_cast<double>(r.qoe.rebuffer_events);
  out[i++] = r.qoe.rebuffer_time.as_seconds_f();
  out[i++] = r.qoe.drop_ratio() * 100.0;
  out[i++] = static_cast<double>(r.qoe.deadline_misses);
  out[i++] = static_cast<double>(r.qoe.quality_switches);
  out[i++] = r.qoe.mean_bitrate_kbps;
  // The single-core metrics are the primary cluster's (clusters[0]).
  out[i++] = static_cast<double>(r.clusters[0].freq_transitions);
  out[i++] = r.clusters[0].busy_fraction;
  out[i++] = r.wall.as_seconds_f();
  out[i++] = r.live_latency.as_seconds_f();
  out[i++] = static_cast<double>(r.radio_promotions);
  out[i++] = r.vafs_decode_mape;
  out[i++] = static_cast<double>(r.vafs_plans);
  out[i++] = static_cast<double>(r.vafs_setspeed_writes);
  out[i++] = r.peak_temp_c;
  out[i++] = r.mean_temp_c;
  out[i++] = r.throttled_time.as_seconds_f();
  out[i++] = static_cast<double>(r.throttle_events);
  // The big/little split of a multi-cluster session: cluster 0 (the
  // primary, by the registry's descending-capacity order) against the sum
  // of the rest, which is 0 on a single-cluster device.
  double little_mj = 0.0;
  std::uint64_t little_transitions = 0;
  std::uint64_t little_frames = 0;
  for (std::size_t c = 1; c < r.clusters.size(); ++c) {
    little_mj += r.clusters[c].cpu_mj;
    little_transitions += r.clusters[c].freq_transitions;
    little_frames += r.clusters[c].decode_frames;
  }
  out[i++] = little_mj;
  out[i++] = static_cast<double>(little_transitions);
  out[i++] = static_cast<double>(r.clusters[0].decode_frames);
  out[i++] = static_cast<double>(little_frames);
  out[i++] = static_cast<double>(r.decode_migrations);
  out[i++] = static_cast<double>(r.qoe.fetch_retries);
  out[i++] = static_cast<double>(r.qoe.fetch_failures);
  out[i++] = static_cast<double>(r.fetch_timeouts);
  out[i++] = static_cast<double>(r.vafs_fallback_entries);
  out[i++] = r.vafs_fallback_time.as_seconds_f();
  out[i++] = static_cast<double>(r.vafs_sysfs_write_errors);
  static_assert(kMetricCount == 35, "session_values must cover every VAFS_EXP_METRICS entry");
}

void Aggregate::add_values(const double* values, bool finished) {
  all_finished = all_finished && finished;
  const auto& table = metrics();
  for (std::size_t i = 0; i < table.size(); ++i) (this->*(table[i].member)).add(values[i]);
  ++runs;
}

void Aggregate::merge(const Aggregate& other) {
  for (const auto& m : metrics()) (this->*(m.member)).merge(other.*(m.member));
  runs += other.runs;
  all_finished = all_finished && other.all_finished;
}

const std::vector<Aggregate::MetricRef>& Aggregate::metrics() {
  static const std::vector<MetricRef> kTable = {
#define VAFS_EXP_REF(name) {#name, &Aggregate::name},
      VAFS_EXP_METRICS(VAFS_EXP_REF)
#undef VAFS_EXP_REF
  };
  return kTable;
}

}  // namespace vafs::exp
