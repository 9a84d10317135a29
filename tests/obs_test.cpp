// Property tests for the observability layer (src/obs/):
//
//   - trace digests are invariant under the runner's --jobs width;
//   - attaching a tracer changes *nothing* about a session's results
//     (observer effect = 0, bit-for-bit);
//   - span streams are well-formed even under fuzzed fault plans;
//   - digest-only (ring_capacity = 0) and full-ring tracers agree.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "exp/grid.h"
#include "exp/runner.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "simcore/rng.h"

namespace {

using namespace vafs;

// ---------------------------------------------------------------------------
// Digest determinism across the runner's parallelism.

core::SessionConfig small_session(const std::string& governor) {
  core::SessionConfig config;
  config.governor = governor;
  config.media_duration = sim::SimTime::seconds(8);
  config.net = core::NetProfile::kFair;
  return config;
}

TEST(TraceDigest, InvariantUnderJobs) {
  exp::ExperimentGrid grid(small_session("ondemand"));
  grid.governors({"ondemand", "vafs"});

  exp::RunOptions serial;
  serial.jobs = 1;
  serial.seeds = {101, 202};
  serial.trace = true;
  exp::RunOptions parallel = serial;
  parallel.jobs = 4;

  const exp::ResultSet a = exp::run_grid(grid, serial);
  const exp::ResultSet b = exp::run_grid(grid, parallel);
  ASSERT_EQ(a.all().size(), b.all().size());
  for (std::size_t s = 0; s < a.all().size(); ++s) {
    const auto& ra = a.all()[s];
    const auto& rb = b.all()[s];
    ASSERT_EQ(ra.runs.size(), rb.runs.size());
    for (std::size_t i = 0; i < ra.runs.size(); ++i) {
      EXPECT_NE(ra.runs[i].trace_digest, 0u);
      EXPECT_EQ(ra.runs[i].trace_digest, rb.runs[i].trace_digest)
          << ra.spec.id << " seed index " << i;
      EXPECT_EQ(ra.runs[i].trace_events, rb.runs[i].trace_events);
    }
  }
}

// ---------------------------------------------------------------------------
// Observer effect = 0: a session with a tracer attached must produce a
// bit-identical SessionResult to the same session without one.

void expect_results_identical(const core::SessionResult& a, const core::SessionResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.wall.as_micros(), b.wall.as_micros());
  EXPECT_EQ(a.played.as_micros(), b.played.as_micros());
  EXPECT_EQ(a.energy.cpu_mj, b.energy.cpu_mj);          // exact, not near
  EXPECT_EQ(a.energy.total_mj(), b.energy.total_mj());  // exact
  EXPECT_EQ(a.qoe.frames_presented, b.qoe.frames_presented);
  EXPECT_EQ(a.qoe.frames_dropped, b.qoe.frames_dropped);
  EXPECT_EQ(a.qoe.rebuffer_events, b.qoe.rebuffer_events);
  EXPECT_EQ(a.clusters, b.clusters);  // exact, field by field
  EXPECT_EQ(a.vafs_plans, b.vafs_plans);
  EXPECT_EQ(a.vafs_setspeed_writes, b.vafs_setspeed_writes);
  EXPECT_EQ(a.fault_windows, b.fault_windows);
  EXPECT_EQ(a.injected_fetch_failures, b.injected_fetch_failures);
  EXPECT_EQ(a.injected_sysfs_errors, b.injected_sysfs_errors);
  EXPECT_EQ(a.vafs_fallback_entries, b.vafs_fallback_entries);
}

TEST(ObserverEffect, TracerAttachedVsDetachedBitIdentical) {
  for (const char* governor : {"ondemand", "vafs"}) {
    SCOPED_TRACE(governor);
    core::SessionConfig config = small_session(governor);
    config.fault = fault::FaultPlanConfig::mild();  // exercise injector paths too

    const core::SessionResult detached = core::run_session(config);

    obs::Tracer tracer;
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    const core::SessionResult attached = core::run_session(config, hooks);

    expect_results_identical(detached, attached);
    EXPECT_GT(attached.trace_events, 0u);
    EXPECT_EQ(detached.trace_events, 0u);  // zeroed without a tracer
  }
}

// ---------------------------------------------------------------------------
// Span well-formedness under fuzzed fault plans.

fault::FaultPlanConfig fuzzed_plan(sim::Rng* rng) {
  fault::FaultPlanConfig plan;
  plan.outage_rate_per_min = rng->uniform(0.0, 4.0);
  plan.collapse_rate_per_min = rng->uniform(0.0, 4.0);
  plan.fetch_failure_prob = rng->uniform(0.0, 0.3);
  plan.fetch_hang_prob = rng->uniform(0.0, 0.1);
  plan.decode_spike_rate_per_min = rng->uniform(0.0, 4.0);
  plan.sysfs_fault_rate_per_min = rng->uniform(0.0, 4.0);
  plan.thermal_cap_rate_per_min = rng->uniform(0.0, 2.0);
  return plan;
}

/// Walks the retained event stream checking span discipline:
///   - sync begin/end pairs nest as a stack per track, depth never
///     negative, and every span still open at kSessionEnd was opened;
///   - async begin/end pairs match by id, no id opened twice, no end
///     without a begin.
void check_span_stream(const obs::Tracer& tracer) {
  ASSERT_EQ(tracer.dropped(), 0u) << "corpus session overflowed the ring";
  std::map<std::pair<obs::Track, std::uint64_t>, int> async_open;  // (track, id) -> count
  int sync_depth[obs::kTrackCount] = {};
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& ev = tracer.event(i);
    const obs::EventInfo& info = obs::event_info(ev.kind);
    const auto track_index = static_cast<std::size_t>(info.track);
    switch (info.phase) {
      case obs::Phase::kBegin:
        ++sync_depth[track_index];
        break;
      case obs::Phase::kEnd:
        --sync_depth[track_index];
        ASSERT_GE(sync_depth[track_index], 0)
            << info.name << " at t=" << ev.t_us << " closes more spans than were opened";
        break;
      case obs::Phase::kAsyncBegin: {
        int& open = async_open[{info.track, ev.a}];
        ASSERT_LE(open, 1) << info.name << " id " << ev.a << " opened while already open twice";
        ++open;
        break;
      }
      case obs::Phase::kAsyncEnd: {
        int& open = async_open[{info.track, ev.a}];
        ASSERT_GT(open, 0) << info.name << " id " << ev.a << " ended but was never begun";
        --open;
        break;
      }
      case obs::Phase::kInstant:
      case obs::Phase::kComplete:
        break;
    }
  }
  // The session span itself must have closed.
  EXPECT_EQ(sync_depth[static_cast<std::size_t>(obs::Track::kSession)], 0);
  EXPECT_EQ(sync_depth[static_cast<std::size_t>(obs::Track::kWatchdog)], 0);
}

TEST(SpanNesting, WellFormedUnderFuzzedFaultPlans) {
  sim::Rng rng(20260806);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    core::SessionConfig config = small_session(round % 2 == 0 ? "vafs" : "ondemand");
    config.seed = rng.next_u64();
    config.fault = fuzzed_plan(&rng);

    obs::Tracer tracer;
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    core::run_session(config, hooks);
    check_span_stream(tracer);
  }
}

// ---------------------------------------------------------------------------
// The CPU power series integrates to the metered energy.

TEST(CpuPowerSeries, IntegratesToThePrimaryClusterEnergy) {
  // Each kCpuPowerMw sample is the mean power of one constant-frequency
  // stretch, stamped at its start; the last stretch runs to the session's
  // end. Power × duration, summed, must give back the cluster's energy.
  for (const char* governor : {"ondemand", "schedutil", "vafs", "performance"}) {
    SCOPED_TRACE(governor);
    core::SessionConfig config;
    config.governor = governor;
    config.media_duration = sim::SimTime::seconds(20);
    config.net = core::NetProfile::kConstant;
    config.constant_mbps = 12.0;
    config.seed = 5;

    obs::Tracer tracer;  // full ring: keeps the timeline
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    const core::SessionResult r = core::run_session(config, hooks);
    ASSERT_TRUE(r.finished);

    const auto& samples = tracer.timeline().at(obs::SeriesId::kCpuPowerMw).samples();
    ASSERT_FALSE(samples.empty());
    double mj = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const std::int64_t end_us =
          i + 1 < samples.size() ? samples[i + 1].t_us : r.wall.as_micros();
      ASSERT_GE(end_us, samples[i].t_us);
      mj += samples[i].value * static_cast<double>(end_us - samples[i].t_us) * 1e-6;
    }
    EXPECT_NEAR(mj, r.clusters[0].cpu_mj, 0.1);
  }
}

// ---------------------------------------------------------------------------
// Digest-only mode and hex round-tripping.

TEST(TraceDigest, DigestOnlyModeMatchesFullRing) {
  const core::SessionConfig config = small_session("vafs");

  obs::Tracer full;  // default ring
  core::SessionHooks hooks;
  hooks.tracer = &full;
  core::run_session(config, hooks);

  obs::Tracer digest_only(obs::Tracer::Config{0});
  hooks.tracer = &digest_only;
  core::run_session(config, hooks);

  EXPECT_EQ(full.digest(), digest_only.digest());
  EXPECT_EQ(full.recorded(), digest_only.recorded());
  EXPECT_EQ(full.checkpoints(), digest_only.checkpoints());
  EXPECT_EQ(digest_only.size(), 0u);  // nothing stored
  EXPECT_EQ(full.dropped(), 0u);

  // A timeline exists iff a ring does: every series of the digest-only
  // tracer stays empty, while the full-ring tracer fills all four.
  for (std::size_t k = 0; k < obs::kSeriesCount; ++k) {
    const auto id = static_cast<obs::SeriesId>(k);
    SCOPED_TRACE(obs::series_name(id));
    EXPECT_TRUE(digest_only.timeline().at(id).samples().empty());
    EXPECT_FALSE(full.timeline().at(id).samples().empty());
  }
}

TEST(DigestHex, RoundTrips) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xCBF29CE484222325ull}, ~std::uint64_t{0}}) {
    const std::string hex = obs::digest_hex(v);
    EXPECT_EQ(hex.size(), 18u);  // "0x" + 16 digits
    std::uint64_t back = 0;
    ASSERT_TRUE(obs::parse_digest_hex(hex, &back));
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_TRUE(obs::parse_digest_hex("cbf29ce484222325", &out));  // prefixless
  EXPECT_FALSE(obs::parse_digest_hex("", &out));
  EXPECT_FALSE(obs::parse_digest_hex("0x", &out));
  EXPECT_FALSE(obs::parse_digest_hex("0xgg", &out));
  EXPECT_FALSE(obs::parse_digest_hex("0x11112222333344445", &out));  // 17 digits
}

TEST(TimelineCsv, EmitsEverySampleInSchema) {
  obs::Timeline timeline;
  timeline.push(obs::SeriesId::kFreqKhz, sim::SimTime::millis(5), 600000.0);
  timeline.push(obs::SeriesId::kBufferSeconds, sim::SimTime::millis(7), 2.25);
  std::ostringstream out;
  obs::write_timeline_csv(out, timeline);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("series,t_us,value\n", 0), 0u);
  EXPECT_NE(csv.find("freq_khz,5000,600000"), std::string::npos);
  EXPECT_NE(csv.find("buffer_s,7000,2.25"), std::string::npos);
}

}  // namespace
