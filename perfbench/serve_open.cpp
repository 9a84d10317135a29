// serve_open: replays recorded VAFS decision streams against an in-process
// serve::Server. Set-up records the streams of in-process vafs sessions on
// the S1 grid (720p, 30 s, fair + poor) and starts the server. Two client
// connections, each driven by one generator thread, carry many streams each
// in recorded order: two open-loop phases at fixed aggregate rates of 20k and
// 60k decisions/s (round-trip time counted from each request's actual send
// and from its due time), then a closed-loop phase sending back to back,
// repeated in rounds. Every reply must equal the recorded in-process reply
// bit for bit. No simulator runs while measuring, so this isolates the wire
// codec, socket, thread-per-connection server and stream lookup.
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.h"
#include "serve/server.h"
#include "sessions.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = vafs::serve;

constexpr std::size_t kSeedsPerNet = 32;
constexpr int kConnections = 2;
constexpr std::size_t kStreamsPerConnection = 32;

std::vector<exp::ScenarioSpec> make_scenarios() {
  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = vafs::sim::SimTime::seconds(30);
  base.downloader.attempt_timeout = vafs::sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  return exp::ExperimentGrid(base)
      .governors({"vafs"})
      .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                    {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}})
      .scenarios();
}

/// Runs each cell in-process and records its decision stream.
std::vector<Recording> record(const std::vector<Cell>& cells, Report& report) {
  TimedBackend recorder(/*record=*/true);
  core::SessionArena arena;
  for (const Cell& cell : cells) {
    core::SessionConfig config = cell.spec->config;
    config.seed = cell.seed;
    core::SessionHooks hooks;
    hooks.decision_backend = &recorder;
    try {
      report.check(core::run_session(config, hooks, &arena).finished,
                   cell.spec->id + ": recorded session did not finish");
    } catch (const std::exception& e) {
      report.check(false, cell.spec->id + ": " + e.what());
    }
  }
  return recorder.take_recordings();
}

bool same_response(const core::DecisionResponse& a, const core::DecisionResponse& b) {
  if (a.planned != b.planned || a.boosted != b.boosted ||
      a.latency_critical != b.latency_critical || a.decode_cluster != b.decode_cluster ||
      a.cluster_count != b.cluster_count ||
      std::bit_cast<std::uint64_t>(a.decode_mape) != std::bit_cast<std::uint64_t>(b.decode_mape)) {
    return false;
  }
  for (std::size_t i = 0; i < core::kMaxDecisionClusters; ++i) {
    if (a.target_khz[i] != b.target_khz[i]) return false;
  }
  return true;
}

// Phases are cut into windows; the end-to-end figures are quartiles over
// windows (see Units), the table adds the pooled exact percentiles.
constexpr std::int64_t kWindowNs = 100'000'000;

struct PhaseResult {
  std::vector<Samples> rtt_due;   // per full window: reply minus due (open) or send (closed) time
  std::vector<Samples> rtt_send;  // per full window: reply minus actual send time
  Samples overflow_due;           // rtt_due of replies after the last full window
  Samples overflow_send;          // rtt_send of replies after the last full window
  Samples lag;                    // actual send minus due time
  std::uint64_t decisions = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  std::int64_t backlog_max = 0;
  SpanLog spans;

  Samples pooled_rtt_due() const { return pooled(rtt_due, overflow_due); }
  Samples pooled_rtt_send() const { return pooled(rtt_send, overflow_send); }
  /// Adds another connection's share of the same phase, window by window.
  void merge(const PhaseResult& o) {
    merge_windows(rtt_due, o.rtt_due);
    merge_windows(rtt_send, o.rtt_send);
    merge_totals(o);
  }
  /// Appends a later phase's windows after this one's.
  void extend(const PhaseResult& o) {
    rtt_due.insert(rtt_due.end(), o.rtt_due.begin(), o.rtt_due.end());
    rtt_send.insert(rtt_send.end(), o.rtt_send.begin(), o.rtt_send.end());
    merge_totals(o);
  }

 private:
  static Samples pooled(const std::vector<Samples>& windows, const Samples& overflow) {
    Samples all = overflow;
    for (const Samples& w : windows) all.append(w);
    return all;
  }
  static void merge_windows(std::vector<Samples>& into, const std::vector<Samples>& from) {
    into.resize(std::max(into.size(), from.size()));
    for (std::size_t w = 0; w < from.size(); ++w) into[w].append(from[w]);
  }
  void merge_totals(const PhaseResult& o) {
    overflow_due.append(o.overflow_due);
    overflow_send.append(o.overflow_send);
    lag.append(o.lag);
    decisions += o.decisions;
    mismatches += o.mismatches;
    errors += o.errors;
    backlog_max = std::max(backlog_max, o.backlog_max);
    spans.append(o.spans);
  }
};

/// One generator: replays the recordings cyclically from `first` over
/// kStreamsPerConnection concurrently open streams on `conn`, round robin,
/// each stream in recorded order. `period_ns` > 0 sends request n at
/// start + n * period_ns (open loop); 0 sends back to back (closed loop).
/// Replies after the last full window count only in the pooled figures.
void generate(serve::ServeConnection& conn, const std::vector<Recording>& recordings,
              std::size_t first, std::int64_t period_ns, std::int64_t start_ns,
              std::int64_t end_ns, bool trace, PhaseResult& out) {
  struct Slot {
    std::size_t recording = 0;
    std::size_t cursor = 0;
    std::uint64_t stream_id = 0;
    bool open = false;
    std::int32_t span = SpanLog::kNoParent;
  };
  std::vector<Slot> slots(kStreamsPerConnection);
  std::size_t next_recording = first;
  for (Slot& s : slots) s.recording = next_recording++ % recordings.size();
  std::uint64_t serial = 0;
  const auto windows = static_cast<std::size_t>((end_ns - start_ns) / kWindowNs);
  out.rtt_due.resize(windows);
  out.rtt_send.resize(windows);

  while (now_ns() < start_ns) std::this_thread::yield();
  try {
    for (std::int64_t n = 0;; ++n) {
      std::int64_t due = 0;
      if (period_ns > 0) {
        due = start_ns + n * period_ns;
        if (due >= end_ns) break;
        while (now_ns() < due) std::this_thread::yield();
      } else if (now_ns() >= end_ns) {
        break;
      }
      Slot& slot = slots[static_cast<std::size_t>(n) % slots.size()];
      const Recording& rec = recordings[slot.recording];
      if (!slot.open) {
        if (trace) slot.span = out.spans.begin("serve.stream", SpanLog::kNoParent, serial++);
        const std::int64_t h0 = now_ns();
        slot.stream_id = conn.open_stream(rec.info);
        if (trace) out.spans.add("serve.open_stream", h0, now_ns(), slot.span, serial - 1);
        slot.open = true;
      }
      const std::int64_t sent = now_ns();
      const core::DecisionResponse reply = conn.decide(slot.stream_id, rec.requests[slot.cursor]);
      const std::int64_t replied = now_ns();
      const auto window = static_cast<std::size_t>((replied - start_ns) / kWindowNs);
      const bool full = window < windows;
      (full ? out.rtt_due[window] : out.overflow_due).add(replied - (period_ns > 0 ? due : sent));
      (full ? out.rtt_send[window] : out.overflow_send).add(replied - sent);
      if (period_ns > 0) {
        out.lag.add(sent - due);
        out.backlog_max = std::max(out.backlog_max, (sent - start_ns) / period_ns - n);
      }
      out.decisions += 1;
      if (!same_response(reply, rec.responses[slot.cursor])) out.mismatches += 1;
      if (++slot.cursor == rec.requests.size()) {
        conn.close_stream(slot.stream_id);
        if (trace) out.spans.end(slot.span);
        slot = Slot{next_recording++ % recordings.size()};
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: serve_open generator: %s\n", e.what());
    out.errors += 1;
  }
  for (Slot& slot : slots) {
    if (!slot.open) continue;
    conn.close_stream(slot.stream_id);
    if (trace) out.spans.end(slot.span);
  }
}

/// Runs one phase on every connection at `rate` decisions/s in aggregate
/// (0 = closed loop) for `seconds`. `window_cpu_s` receives the process
/// CPU time spent in each full window.
PhaseResult run_phase(std::vector<std::unique_ptr<serve::ServeConnection>>& conns,
                      const std::vector<Recording>& recordings, double rate, double seconds,
                      bool trace, std::vector<double>* window_cpu_s) {
  std::vector<PhaseResult> parts(conns.size());
  const std::int64_t period_ns =
      rate > 0 ? static_cast<std::int64_t>(std::llround(1e9 * kConnections / rate)) : 0;
  const std::int64_t start_ns = now_ns() + 5'000'000;  // both generators start together
  const std::int64_t end_ns = start_ns + std::llround(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const std::size_t first = c * recordings.size() / conns.size();
    threads.emplace_back(generate, std::ref(*conns[c]), std::cref(recordings), first, period_ns,
                         start_ns, end_ns, trace, std::ref(parts[c]));
  }
  // This thread only samples the CPU clock at window boundaries.
  window_cpu_s->clear();
  const auto at = [](std::int64_t ns) {
    return Clock::time_point(std::chrono::nanoseconds(ns));
  };
  std::this_thread::sleep_until(at(start_ns));
  double cpu_prev = process_cpu_s();
  for (std::int64_t w = start_ns + kWindowNs; w <= end_ns; w += kWindowNs) {
    std::this_thread::sleep_until(at(w));
    const double cpu = process_cpu_s();
    window_cpu_s->push_back(cpu - cpu_prev);
    cpu_prev = cpu;
  }
  for (std::thread& t : threads) t.join();
  PhaseResult all;
  for (const PhaseResult& p : parts) all.merge(p);
  return all;
}

}  // namespace

void run_serve_open(const Args& args, Report& report, SpanLog& spans) {
  const std::vector<exp::ScenarioSpec> scenarios = make_scenarios();
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kSeedsPerNet; ++i) seeds.push_back(derive_seed(args.seed, 3, i));
  const std::vector<Cell> cells = grid_cells(scenarios, seeds);

  const std::string socket_path = args.scratch_dir + "/s" + std::to_string(getpid()) + ".sock";
  std::vector<Recording> recordings;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::ServeConnection>> conns;
  std::vector<double> window_cpu_s;
  const auto phase = [&](double rate, double seconds, bool trace, std::vector<double>* cpu) {
    PhaseResult r = run_phase(conns, recordings, rate, seconds, trace, cpu);
    report.attempt(r.decisions);
    report.fail_ops(r.mismatches + r.errors);
    report.check(r.mismatches == 0,
                 std::to_string(r.mismatches) + " served replies differ from the recorded ones");
    return r;
  };
  // Serving time is mostly thread wake-ups, which the calibration kernel
  // does not track, so this workload reports unscaled figures.
  Units units(0.0);

  // Set-up: record the streams, start the server, connect and serve a short
  // warm-up phase; repeated.
  for (int k = 0; k < kSetupRuns; ++k) {
    conns.clear();
    if (server) server->stop();
    server.reset();
    const auto t0 = k == 0 ? args.process_start : Clock::now();
    recordings = record(cells, report);
    report.check(recordings.size() == cells.size(), "one recording per session expected");
    if (recordings.size() != cells.size()) return;
    serve::ServerOptions sopts;
    sopts.socket_path = socket_path;
    server = std::make_unique<serve::Server>(sopts);
    if (!server->start()) {
      report.check(false, "cannot start the decision server on " + socket_path);
      return;
    }
    for (int c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<serve::ServeConnection>(socket_path));
      report.check(conns.back()->ping(), "the decision server did not answer a ping");
    }
    phase(0.0, 0.05, false, &window_cpu_s);
    const double setup = seconds_since(t0);
    units.add_setup(setup, 0.0);
  }
  const double rss_mib = peak_rss_mib();
  double decisions_recorded = 0;
  for (const Recording& r : recordings) decisions_recorded += static_cast<double>(r.requests.size());
  const double per_session = decisions_recorded / static_cast<double>(recordings.size());
  std::printf("serve_open: %zu recorded streams, %.1f decisions each, %d connections x %zu "
              "streams\n",
              recordings.size(), per_session, kConnections, kStreamsPerConnection);

  // Tracing overhead: closed-loop phases without and with spans, alternated
  // so that host drift hits both sides alike.
  const bool trace = args.trace;
  double untraced_decisions = 0.0, traced_decisions = 0.0;
  for (int k = 0; trace && k < 2; ++k) {
    untraced_decisions +=
        static_cast<double>(phase(0.0, 0.1 * args.seconds, false, &window_cpu_s).decisions);
    traced_decisions +=
        static_cast<double>(phase(0.0, 0.1 * args.seconds, true, &window_cpu_s).decisions);
  }
  // The phases run in rounds of about 3 s (20k/s, 60k/s, closed loop), so
  // a disturbed stretch of the host hits every phase a little instead of
  // one phase entirely. The 20k/s phase, which gives the latency figures,
  // takes half of each round; the 60k/s phase gives table figures only.
  PhaseResult r20k, r60k, closed;
  std::vector<double> closed_cpu_s;
  const long rounds = std::max(1L, std::lround(args.seconds / 3.0));
  const double round_s = args.seconds / static_cast<double>(rounds);
  for (long k = 0; k < rounds; ++k) {
    r20k.extend(phase(20000.0, 0.5 * round_s, trace, &window_cpu_s));
    r60k.extend(phase(60000.0, 0.1 * round_s, trace, &window_cpu_s));
    closed.extend(phase(0.0, 0.4 * round_s, trace, &window_cpu_s));
    closed_cpu_s.insert(closed_cpu_s.end(), window_cpu_s.begin(), window_cpu_s.end());
  }
  const double closed_rate = static_cast<double>(closed.decisions) / (0.4 * args.seconds);

  server->stop();
  const serve::ServerStats stats = server->stats();
  conns.clear();
  server.reset();
  report.check(stats.protocol_errors == 0, "the server counted protocol errors");
  report.check(stats.connections_rejected == 0, "the server rejected connections");

  if (!trace) {
    // Units: closed-loop windows for throughput and CPU, 20k/s windows for
    // latency (the 60k/s phase runs near saturation; it is in the table).
    for (std::size_t w = 0; w < closed_cpu_s.size(); ++w) {
      const double served = static_cast<double>(closed.rtt_due[w].size()) / per_session;
      units.add_work(static_cast<double>(kWindowNs) * 1e-9, closed_cpu_s[w], served);
    }
    // Latency units are 300 ms of the 20k/s phase (three windows, about
    // 6000 round trips), so each unit's p95 rests on about 300 samples
    // beyond it. They are timed from the actual send: timed from the due
    // time, one stall of a generator thread makes every request queued
    // behind it late, and a few such stalls decide a unit's tail. The
    // due-time figures are in the table and the traced run.
    for (std::size_t w = 0; w + 2 < r20k.rtt_send.size(); w += 3) {
      Samples unit = r20k.rtt_send[w];
      unit.append(r20k.rtt_send[w + 1]);
      unit.append(r20k.rtt_send[w + 2]);
      units.add_latencies(unit);
    }
    units.report(report, rss_mib);
    Samples r20k_all = r20k.pooled_rtt_due();
    Samples r60k_all = r60k.pooled_rtt_due();
    report.note("rtt_p50_us.r20k", r20k_all.quantile_ns(0.50) * 1e-3, "us");
    report.note("rtt_p99_us.r20k", r20k_all.quantile_ns(0.99) * 1e-3, "us");
    report.note("rtt_p50_us.r60k", r60k_all.quantile_ns(0.50) * 1e-3, "us");
    report.note("rtt_p99_us.r60k", r60k_all.quantile_ns(0.99) * 1e-3, "us");
    report_latency(report, "rtt_us.r60k", r60k_all, 1e-3, "us", LatencyKind::kTable);
    report.note("decisions_per_s_closed", closed_rate, "1/s");
    return;
  }

  spans.append(r20k.spans);
  spans.append(r60k.spans);
  spans.append(closed.spans);
  TracedPass pass = trace_cells(cells, spans, report);
  const KindCounts counts = count_kinds(cells, report);
  report.check(count_kinds(cells, report) == counts, "event-kind counts did not repeat exactly");
  report_session_layers(report, pass, counts, /*coverage_required=*/false);
  report.metric("trace.overhead_share", untraced_decisions / traced_decisions - 1.0, "ratio");
  FleetLayers no_fleet;
  report_fleet_layers(report, no_fleet);

  ServeLayers layers;
  layers.rtt_due_r20k = r20k.pooled_rtt_due();
  layers.rtt_due_r60k = r60k.pooled_rtt_due();
  layers.rtt_send = r20k.pooled_rtt_send();
  layers.lag = std::move(r20k.lag);
  layers.lag.append(r60k.lag);
  layers.decide_p50_ns = pass.decide.quantile_ns(0.5);
  layers.backlog_max = static_cast<double>(std::max(r20k.backlog_max, r60k.backlog_max));
  layers.decisions_per_s_closed = closed_rate;
  layers.requests = static_cast<double>(stats.requests);
  layers.protocol_errors = static_cast<double>(stats.protocol_errors);
  layers.connections_rejected = static_cast<double>(stats.connections_rejected);
  report_serve_layers(report, layers);
}

void report_serve_layers(Report& report, ServeLayers& layers) {
  report_latency(report, "serve.rtt_due_us.r20k", layers.rtt_due_r20k, 1e-3, "us",
                 LatencyKind::kLayer);
  report_latency(report, "serve.rtt_due_us.r60k", layers.rtt_due_r60k, 1e-3, "us",
                 LatencyKind::kLayer);
  report_latency(report, "serve.rtt_send_us", layers.rtt_send, 1e-3, "us", LatencyKind::kLayer);
  const double send_p50_us = layers.rtt_send.quantile_ns(0.5) * 1e-3;
  report.metric("serve.transport_us",
                send_p50_us > 0 ? send_p50_us - layers.decide_p50_ns * 1e-3 : 0.0, "us");
  report_latency(report, "serve.generator_lag_us", layers.lag, 1e-3, "us", LatencyKind::kLayer);
  report.metric("serve.backlog_max", layers.backlog_max, "count");
  report.metric("serve.decisions_per_s_closed", layers.decisions_per_s_closed, "1/s");
  report.metric("serve.requests", layers.requests, "count");
  report.metric("serve.protocol_errors", layers.protocol_errors, "count");
  report.metric("serve.connections_rejected", layers.connections_rejected, "count");
}

}  // namespace perfbench
