#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index) {
  // splitmix64 finalizer over the three inputs; never 0 so a derived seed
  // cannot collide with "unset".
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z % 1000000007ULL) + 1;
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort_once() {
  if (!sorted_) std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Samples::quantile_ns(double q) {
  if (values_.empty()) return 0.0;
  sort_once();
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return static_cast<double>(values_[rank - 1]);
}

double Samples::tail_ns(double* percentile) {
  *percentile = 0.0;
  if (values_.size() < 11) return 0.0;
  sort_once();
  const std::size_t idx = values_.size() - 11;  // ten samples rank above it
  *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(values_.size());
  return static_cast<double>(values_[idx]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quartile(std::vector<double> values, int i) {
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values[0];
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  const long j = std::clamp<long>(i * m / 4, 1, n - 1);
  const long delta = i * m - j * 4;
  return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
          values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         4.0;
}

namespace {

// `ops` events of the calibration kernel on `table`.
void calibration_kernel(std::vector<std::uint64_t>& table, int ops) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  heap.reserve(4096);
  std::uint64_t z = 88172645463325252ULL;
  const auto next = [&z] {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    return z;
  };
  const auto later = [](const auto& a, const auto& b) { return a.first > b.first; };
  for (std::uint32_t i = 0; i < 2048; ++i) heap.emplace_back(next() % 100000, i);
  std::make_heap(heap.begin(), heap.end(), later);
  std::uint64_t acc = 0;
  for (int i = 0; i < ops; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [at, id] = heap.back();
    heap.pop_back();
    const std::uint64_t r = next();
    std::uint64_t& slot = table[(r >> 20) % table.size()];
    slot = (slot & 1) != 0 ? slot + id : slot ^ r;
    acc += slot;
    heap.emplace_back(at + 1 + r % 5000, id);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  volatile std::uint64_t sink = acc;  // keeps the loop from being optimized away
  (void)sink;
}

}  // namespace

double calibration_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19, 1);  // 4 MiB
  const auto t0 = Clock::now();
  calibration_kernel(table, 100000);
  return seconds_since(t0);
}

void Units::add_work(double wall_s, double cpu_s, double sessions) {
  rates_.push_back(sessions / wall_s);
  cpu_ms_.push_back(cpu_s * 1e3 / sessions);
}

void Units::add_latencies(Samples& samples) {
  lat_p50_ns_.push_back(samples.quantile_ns(0.50));
  lat_p95_ns_.push_back(samples.quantile_ns(0.95));
  lat_p99_ns_.push_back(samples.quantile_ns(0.99));
  min_unit_samples_ = std::min(min_unit_samples_, samples.size());
  pooled_.append(samples);
}

void Units::report(Report& report, double rss_mib) {
  report.check(!rates_.empty() && !lat_p99_ns_.empty(), "no timed units");
  report.check(min_unit_samples_ >= 1000 && !lat_p99_ns_.empty(),
               "a latency unit has fewer than 1000 samples, so its p99 lacks ten beyond it");
  // > 1 when the host ran slower than the reference during this run.
  const double slowdown = calibration_ref_s_ > 0 && !calibration_s_.empty()
                              ? quartile(calibration_s_, 1) / calibration_ref_s_
                              : 1.0;
  report.metric("sessions_per_s", quartile(rates_, 3) * slowdown, "1/s");
  report.metric("cpu_ms_per_session", quartile(cpu_ms_, 1) / slowdown, "ms");
  report.metric("decide_us.p50", quartile(lat_p50_ns_, 1) * 1e-3 / slowdown, "us");
  report.metric("decide_us.p95", quartile(lat_p95_ns_, 1) * 1e-3 / slowdown, "us");
  report.metric("setup_s", median(setup_scaled_s_), "s");
  report.metric("peak_rss_mib", rss_mib, "MiB");
  report.note("failed_share",
              static_cast<double>(report.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)),
              "ratio");
  report.note("host_slowdown", slowdown, "ratio");
  report.note("raw.sessions_per_s", quartile(rates_, 3), "1/s");
  report.note("raw.cpu_ms_per_session", quartile(cpu_ms_, 1), "ms");
  report.note("raw.setup_s", median(setup_s_), "s");
  report.note("raw.sessions_per_s.median_unit", median(rates_), "1/s");
  report.note("units.work", static_cast<double>(rates_.size()), "count");
  report.note("decide_us.p99", quartile(lat_p99_ns_, 1) * 1e-3 / slowdown, "us");
  report.note("units.latency", static_cast<double>(lat_p50_ns_.size()), "count");
  report_latency(report, "raw.decide_us.pooled", pooled_, 1e-3, "us", LatencyKind::kTable);
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const Totals& t) { return t.name == s.name; });
    if (it == out.end()) {
      out.push_back(Totals{s.name});
      it = out.end() - 1;
    }
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    it->count += 1;
    it->total_s += total;
    it->self_s += total - static_cast<double>(child_ns[i]) * 1e-9;
  }
  return out;
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += offset;
    spans_.push_back(s);
  }
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "id,name,start_ns,end_ns,parent,session\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent << ','
        << s.session << '\n';
  }
  return static_cast<bool>(out);
}

void Report::metric(const std::string& name, double value, const char* unit) {
  entries_.push_back(Entry{name, value, unit, true});
}

void Report::note(const std::string& name, double value, const char* unit) {
  entries_.push_back(Entry{name, value, unit, false});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  ++failed_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::print(const std::string& workload) const {
  std::printf("\n%-40s %18s  %s\n", ("workload " + workload).c_str(), "value", "unit");
  for (const Entry& e : entries_) {
    std::printf("%-40s %18.6g  %s%s\n", e.name.c_str(), e.value, e.unit, e.json ? "" : "  (table)");
  }
  std::printf("%-40s %18llu\n%-40s %18llu\n", "attempted", static_cast<unsigned long long>(attempted_),
              "failed", static_cast<unsigned long long>(failed_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.json) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + e.name + "\": {\"value\": " + json_number(std::isfinite(e.value) ? e.value : 0.0) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_latency(Report& report, const std::string& base, Samples& samples, double scale,
                    const char* unit, LatencyKind kind) {
  const std::size_t n = samples.size();
  const double p50 = samples.quantile_ns(0.50) * scale;
  double tail_pct = 0.0;
  const double tail = samples.tail_ns(&tail_pct) * scale;
  char label[32];
  std::snprintf(label, sizeof label, ".p%.6g", tail_pct);
  if (kind == LatencyKind::kTable) {
    report.note(base + ".p50", p50, unit);
    report.note(base + ".p99", samples.quantile_ns(0.99) * scale, unit);
    report.note(base + label, tail, unit);
    report.note(base + ".n", static_cast<double>(n), "count");
  } else {
    report.metric(base + ".p50", p50, unit);
    report.metric(base + ".tail", tail, unit);
    report.note(base + label, tail, unit);
    report.note(base + ".n", static_cast<double>(n), "count");
  }
}

}  // namespace perfbench
