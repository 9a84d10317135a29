// Tests for the deterministic fault-injection subsystem: plan compilation
// (determinism, window shape), injector point queries, the bandwidth
// overlay, and full sessions degrading gracefully (and reproducibly)
// under every fault kind.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/session.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/bandwidth.h"
#include "simcore/rng.h"

namespace vafs::fault {
namespace {

FaultPlanConfig busy_config() {
  FaultPlanConfig config;
  config.outage_rate_per_min = 4.0;
  config.collapse_rate_per_min = 4.0;
  config.decode_spike_rate_per_min = 4.0;
  config.sysfs_fault_rate_per_min = 4.0;
  config.thermal_cap_rate_per_min = 4.0;
  return config;
}

// ------------------------------------------------------------------ plan

TEST(FaultPlan, DefaultConfigInjectsNothing) {
  EXPECT_FALSE(FaultPlanConfig{}.any());
  const FaultPlan plan(FaultPlanConfig{}, sim::Rng(1), sim::SimTime::seconds(600));
  EXPECT_EQ(plan.total_windows(), 0u);
}

TEST(FaultPlan, PresetsEnableInjection) {
  EXPECT_TRUE(FaultPlanConfig::mild().any());
  EXPECT_TRUE(FaultPlanConfig::harsh().any());
  // A per-fetch probability alone counts: it needs the injector wired in.
  FaultPlanConfig config;
  config.fetch_failure_prob = 0.01;
  EXPECT_TRUE(config.any());
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const auto horizon = sim::SimTime::seconds(600);
  const FaultPlan a(busy_config(), sim::Rng(42), horizon);
  const FaultPlan b(busy_config(), sim::Rng(42), horizon);
  ASSERT_GT(a.total_windows(), 0u);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    const auto& wa = a.windows(kind);
    const auto& wb = b.windows(kind);
    ASSERT_EQ(wa.size(), wb.size()) << fault_kind_name(kind);
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].start, wb[i].start);
      EXPECT_EQ(wa[i].end, wb[i].end);
      EXPECT_EQ(wa[i].magnitude, wb[i].magnitude);
    }
  }
}

TEST(FaultPlan, DifferentSeedDifferentSchedule) {
  const auto horizon = sim::SimTime::seconds(600);
  const FaultPlan a(busy_config(), sim::Rng(42), horizon);
  const FaultPlan b(busy_config(), sim::Rng(43), horizon);
  bool differs = a.total_windows() != b.total_windows();
  if (!differs) {
    for (std::size_t k = 0; k < kFaultKindCount && !differs; ++k) {
      const auto kind = static_cast<FaultKind>(k);
      for (std::size_t i = 0; i < a.windows(kind).size() && !differs; ++i) {
        differs = a.windows(kind)[i].start != b.windows(kind)[i].start;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, WindowsSortedNonOverlappingWithinHorizon) {
  const auto horizon = sim::SimTime::seconds(600);
  const FaultPlan plan(FaultPlanConfig::harsh(), sim::Rng(7), horizon);
  EXPECT_GT(plan.total_windows(), 0u);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    sim::SimTime prev_end = sim::SimTime::zero();
    for (const auto& w : plan.windows(kind)) {
      EXPECT_EQ(w.kind, kind);
      EXPECT_GE(w.start, prev_end) << fault_kind_name(kind);
      EXPECT_GT(w.end, w.start);
      EXPECT_LE(w.end, horizon);
      prev_end = w.end;
    }
  }
}

TEST(FaultPlan, RetuningOneKindLeavesOthersUnchanged) {
  // Per-kind forked substreams: doubling the outage rate must not move a
  // single decode-spike or sysfs window.
  FaultPlanConfig a = busy_config();
  FaultPlanConfig b = busy_config();
  b.outage_rate_per_min *= 2.0;
  const auto horizon = sim::SimTime::seconds(600);
  const FaultPlan pa(a, sim::Rng(9), horizon);
  const FaultPlan pb(b, sim::Rng(9), horizon);
  for (const auto kind :
       {FaultKind::kThroughputCollapse, FaultKind::kDecodeSpike, FaultKind::kSysfsWriteFault,
        FaultKind::kThermalCap}) {
    const auto& wa = pa.windows(kind);
    const auto& wb = pb.windows(kind);
    ASSERT_EQ(wa.size(), wb.size()) << fault_kind_name(kind);
    for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_EQ(wa[i].start, wb[i].start);
  }
  EXPECT_NE(pa.windows(FaultKind::kLinkOutage).size(), pb.windows(FaultKind::kLinkOutage).size());
}

TEST(FaultPlan, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kLinkOutage), "link-outage");
  EXPECT_STREQ(fault_kind_name(FaultKind::kThroughputCollapse), "throughput-collapse");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDecodeSpike), "decode-spike");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSysfsWriteFault), "sysfs-write-fault");
  EXPECT_STREQ(fault_kind_name(FaultKind::kThermalCap), "thermal-cap");
}

// -------------------------------------------------------------- injector

TEST(FaultInjector, BandwidthScaleTracksWindows) {
  FaultPlanConfig config;
  config.outage_rate_per_min = 3.0;
  config.collapse_rate_per_min = 3.0;
  config.collapse_factor = 0.25;
  const FaultPlan plan(config, sim::Rng(5), sim::SimTime::seconds(600));
  FaultInjector injector(plan, sim::Rng(6));

  const auto& outages = injector.plan().windows(FaultKind::kLinkOutage);
  ASSERT_FALSE(outages.empty());
  for (const auto& w : outages) {
    const auto mid = w.start + (w.end - w.start) / 2;
    EXPECT_EQ(injector.bandwidth_scale(mid), 0.0);
    EXPECT_EQ(injector.bandwidth_scale(w.end), injector.bandwidth_scale(w.end));  // no crash
  }
  const auto& collapses = injector.plan().windows(FaultKind::kThroughputCollapse);
  ASSERT_FALSE(collapses.empty());
  for (const auto& w : collapses) {
    const auto mid = w.start + (w.end - w.start) / 2;
    const double scale = injector.bandwidth_scale(mid);
    // 0.25 unless an outage overlaps (outage wins).
    EXPECT_TRUE(scale == 0.25 || scale == 0.0) << scale;
  }
  // Outside every window the link is clean.
  EXPECT_EQ(injector.bandwidth_scale(sim::SimTime::zero()), 1.0);
}

TEST(FaultInjector, QueriesMayGoBackwards) {
  // The downloader integrates over [last_pump, now], so scale lookups are
  // not monotonic in time. Interleave past/future queries and check each
  // against a linear scan.
  FaultPlanConfig config;
  config.outage_rate_per_min = 6.0;
  const FaultPlan plan(config, sim::Rng(11), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(12));
  const auto& outages = injector.plan().windows(FaultKind::kLinkOutage);
  ASSERT_FALSE(outages.empty());

  auto expected = [&](sim::SimTime t) {
    for (const auto& w : outages) {
      if (t >= w.start && t < w.end) return 0.0;
    }
    return 1.0;
  };
  sim::Rng probe(13);
  for (int i = 0; i < 500; ++i) {
    const auto t = sim::SimTime::micros(
        static_cast<std::int64_t>(probe.uniform(0.0, 300e6)));
    EXPECT_EQ(injector.bandwidth_scale(t), expected(t)) << t.as_micros();
  }
}

TEST(FaultInjector, NextBandwidthChangeIsNextBoundary) {
  FaultPlanConfig config;
  config.outage_rate_per_min = 3.0;
  const FaultPlan plan(config, sim::Rng(21), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(22));
  const auto& outages = injector.plan().windows(FaultKind::kLinkOutage);
  ASSERT_FALSE(outages.empty());

  const auto& first = outages.front();
  EXPECT_EQ(injector.next_bandwidth_change(sim::SimTime::zero()), first.start);
  EXPECT_EQ(injector.next_bandwidth_change(first.start), first.end);
  // Past the final boundary there is nothing left to wake up for.
  EXPECT_EQ(injector.next_bandwidth_change(outages.back().end), sim::SimTime::max());
}

TEST(FaultInjector, DecodeScaleAtLeastOne) {
  FaultPlanConfig config;
  config.decode_spike_rate_per_min = 4.0;
  config.decode_spike_factor = 2.5;
  const FaultPlan plan(config, sim::Rng(31), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(32));
  const auto& spikes = injector.plan().windows(FaultKind::kDecodeSpike);
  ASSERT_FALSE(spikes.empty());
  EXPECT_EQ(injector.decode_scale(sim::SimTime::zero()), 1.0);
  const auto& w = spikes.front();
  EXPECT_EQ(injector.decode_scale(w.start + (w.end - w.start) / 2), 2.5);
}

TEST(FaultInjector, SysfsErrorsOnlyInsideWindows) {
  FaultPlanConfig config;
  config.sysfs_fault_rate_per_min = 4.0;
  config.sysfs_einval_fraction = 1.0;  // every faulted window -> EINVAL
  const FaultPlan plan(config, sim::Rng(41), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(42));
  const auto& windows = injector.plan().windows(FaultKind::kSysfsWriteFault);
  ASSERT_FALSE(windows.empty());

  EXPECT_EQ(injector.sysfs_write_error(sim::SimTime::zero()), std::nullopt);
  const auto& w = windows.front();
  const auto err = injector.sysfs_write_error(w.start + (w.end - w.start) / 2);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, sysfs::Errno::kInval);
  EXPECT_EQ(injector.injected_sysfs_errors(), 1u);
}

TEST(FaultInjector, FetchFatesFollowProbabilities) {
  FaultPlanConfig config;
  config.fetch_failure_prob = 0.25;
  config.fetch_hang_prob = 0.25;
  const FaultPlan plan(config, sim::Rng(51), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(52));
  int fails = 0;
  int hangs = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    sim::SimTime delay;
    const auto fate = injector.fetch_attempt_fate(sim::SimTime::zero(),
                                                  static_cast<std::uint64_t>(i + 1), 1, &delay);
    if (fate == net::FetchFate::kFail) {
      ++fails;
      EXPECT_GT(delay, sim::SimTime::zero());
    } else if (fate == net::FetchFate::kHang) {
      ++hangs;
    }
  }
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.25, 0.05);
  EXPECT_NEAR(static_cast<double>(hangs) / n, 0.25, 0.05);
  EXPECT_EQ(injector.injected_fetch_failures(), static_cast<std::uint64_t>(fails));
  EXPECT_EQ(injector.injected_fetch_hangs(), static_cast<std::uint64_t>(hangs));
}

TEST(FaultInjector, FetchFatesAreOrderInvariant) {
  // The fate of (fetch, attempt) must be a pure function of the ids: an
  // injector queried in a completely different order — which is what a
  // moved shard boundary amounts to — reports identical fates and delays.
  FaultPlanConfig config;
  config.fetch_failure_prob = 0.3;
  config.fetch_hang_prob = 0.2;
  const FaultPlan plan(config, sim::Rng(71), sim::SimTime::seconds(300));
  FaultInjector forward(plan, sim::Rng(72));
  FaultInjector backward(plan, sim::Rng(72));

  using Key = std::pair<std::uint64_t, unsigned>;
  std::map<Key, std::pair<net::FetchFate, sim::SimTime>> expected;
  int fails = 0;
  int hangs = 0;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    for (unsigned attempt = 1; attempt <= 3; ++attempt) {
      sim::SimTime delay;
      const auto fate = forward.fetch_attempt_fate(sim::SimTime::zero(), id, attempt, &delay);
      expected[{id, attempt}] = {fate, delay};
      fails += fate == net::FetchFate::kFail;
      hangs += fate == net::FetchFate::kHang;
    }
  }
  ASSERT_GT(fails, 0);  // the invariance claim must cover nontrivial fates
  ASSERT_GT(hangs, 0);

  for (std::uint64_t id = 40; id >= 1; --id) {
    for (unsigned attempt = 3; attempt >= 1; --attempt) {
      sim::SimTime delay;
      const auto fate = backward.fetch_attempt_fate(sim::SimTime::zero(), id, attempt, &delay);
      const auto& [want_fate, want_delay] = expected[{id, attempt}];
      EXPECT_EQ(fate, want_fate) << "fetch " << id << " attempt " << attempt;
      EXPECT_EQ(delay, want_delay) << "fetch " << id << " attempt " << attempt;
    }
  }
  EXPECT_EQ(backward.injected_fetch_failures(), forward.injected_fetch_failures());
  EXPECT_EQ(backward.injected_fetch_hangs(), forward.injected_fetch_hangs());
}

TEST(FaultyBandwidth, AppliesOverlayWithoutTouchingBase) {
  FaultPlanConfig config;
  config.outage_rate_per_min = 3.0;
  const FaultPlan plan(config, sim::Rng(61), sim::SimTime::seconds(300));
  FaultInjector injector(plan, sim::Rng(62));
  net::ConstantBandwidth base(10.0);
  FaultyBandwidth faulty(base, injector);

  const auto& outages = injector.plan().windows(FaultKind::kLinkOutage);
  ASSERT_FALSE(outages.empty());
  const auto& w = outages.front();
  EXPECT_EQ(faulty.current_mbps(sim::SimTime::zero()), 10.0);
  EXPECT_EQ(faulty.current_mbps(w.start + (w.end - w.start) / 2), 0.0);
  EXPECT_EQ(faulty.current_mbps(w.end), 10.0);
  // next_change fuses the base (never changes) with the window boundaries.
  EXPECT_EQ(faulty.next_change(sim::SimTime::zero()), w.start);
}

// -------------------------------------------------------------- sessions

core::SessionConfig chaos_session(const std::string& governor, std::uint64_t seed) {
  core::SessionConfig config;
  config.governor = governor;
  config.media_duration = sim::SimTime::seconds(60);
  config.fault = FaultPlanConfig::harsh();
  config.downloader.attempt_timeout = sim::SimTime::seconds(6);
  config.downloader.max_attempts = 4;
  config.vafs.watchdog.enabled = true;
  config.seed = seed;
  return config;
}

TEST(FaultSession, ChaosRunsAreDeterministic) {
  const auto a = core::run_session(chaos_session("vafs", 404));
  const auto b = core::run_session(chaos_session("vafs", 404));
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.energy.total_mj(), b.energy.total_mj());
  EXPECT_EQ(a.qoe.rebuffer_time, b.qoe.rebuffer_time);
  EXPECT_EQ(a.qoe.fetch_retries, b.qoe.fetch_retries);
  EXPECT_EQ(a.vafs_fallback_time, b.vafs_fallback_time);
  EXPECT_EQ(a.fault_windows, b.fault_windows);
  EXPECT_GT(a.fault_windows, 0u);
}

TEST(FaultSession, CleanConfigBuildsNoFaultLayer) {
  core::SessionConfig config;
  config.media_duration = sim::SimTime::seconds(30);
  bool saw_injector = true;
  core::SessionHooks hooks;
  hooks.on_ready = [&](core::SessionLive& live) { saw_injector = live.faults != nullptr; };
  const auto result = core::run_session(config, hooks);
  EXPECT_TRUE(result.finished);
  EXPECT_FALSE(saw_injector);
  EXPECT_EQ(result.fault_windows, 0u);
}

TEST(FaultSession, VafsSurvivesSysfsFaultsWithFallback) {
  // Dense sysfs faults + watchdog: the controller must fail over (at
  // least once), keep the session alive, and re-engage (fallback time
  // strictly below the wall clock).
  core::SessionConfig config;
  config.governor = "vafs";
  config.media_duration = sim::SimTime::seconds(90);
  // Poor network + this seed puts several frequency changes inside fault
  // windows (steady-state plans dedup to no writes, so a quiet seed never
  // exercises the knob at all — everything here is seed-deterministic).
  config.net = core::NetProfile::kPoor;
  config.seed = 3;
  config.fault.sysfs_fault_rate_per_min = 6.0;
  config.fault.sysfs_fault_mean_duration = sim::SimTime::seconds(5);
  config.vafs.watchdog.enabled = true;
  config.vafs.watchdog.write_error_threshold = 2;
  const auto result = core::run_session(config);
  EXPECT_TRUE(result.finished);
  EXPECT_GT(result.vafs_fallback_entries, 0u);
  EXPECT_GT(result.vafs_sysfs_write_errors, 0u);
  EXPECT_GT(result.vafs_fallback_time, sim::SimTime::zero());
  EXPECT_LT(result.vafs_fallback_time, result.wall);
}

TEST(FaultSession, OutagesStallButFinish) {
  core::SessionConfig config;
  config.governor = "ondemand";
  config.media_duration = sim::SimTime::seconds(60);
  config.net = core::NetProfile::kConstant;
  config.constant_mbps = 8.0;
  config.fault.outage_rate_per_min = 4.0;
  config.fault.outage_mean_duration = sim::SimTime::seconds(3);
  config.downloader.attempt_timeout = sim::SimTime::seconds(5);
  config.downloader.max_attempts = 10;
  const auto result = core::run_session(config);
  EXPECT_TRUE(result.finished);
  EXPECT_GT(result.fault_windows, 0u);
  // The same session without faults rebuffers strictly less (or equal).
  core::SessionConfig clean = config;
  clean.fault = FaultPlanConfig{};
  const auto base = core::run_session(clean);
  EXPECT_GE(result.qoe.rebuffer_time, base.qoe.rebuffer_time);
  EXPECT_GE(result.wall, base.wall);
}

TEST(FaultSession, ThermalCapWritesScalingMaxFreq) {
  core::SessionConfig config;
  config.governor = "performance";  // pinned at fmax: any cap is visible
  config.media_duration = sim::SimTime::seconds(60);
  config.fault.thermal_cap_rate_per_min = 6.0;
  config.fault.thermal_cap_fraction = 0.5;
  config.fault.thermal_cap_mean_duration = sim::SimTime::seconds(5);
  const auto result = core::run_session(config);
  EXPECT_TRUE(result.finished);
  EXPECT_GT(result.fault_windows, 0u);
  // performance normally never leaves fmax; with caps it must have spent
  // time at or below the capped OPP.
  double below_max = 0.0;
  for (const auto& [khz, frac] : result.clusters[0].residency) {
    if (khz < 2'100'000u) below_max += frac;
  }
  EXPECT_GT(below_max, 0.0);
  EXPECT_GT(result.clusters[0].freq_transitions, 0u);
}

TEST(FaultSession, FaultFreeResultsUnchangedByFaultCodePath) {
  // A zero-rate config must not change a session at all (the layer is
  // skipped, no extra RNG draws).
  core::SessionConfig clean;
  clean.media_duration = sim::SimTime::seconds(30);
  clean.governor = "vafs";
  const auto a = core::run_session(clean);
  core::SessionConfig again = clean;
  again.fault = FaultPlanConfig{};  // still all-zero
  const auto b = core::run_session(again);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.energy.total_mj(), b.energy.total_mj());
  EXPECT_EQ(a.vafs_setspeed_writes, b.vafs_setspeed_writes);
}

}  // namespace
}  // namespace vafs::fault
