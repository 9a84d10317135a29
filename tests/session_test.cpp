// Integration tests: full streaming sessions through the session harness.
// These pin the paper-level behaviours: sessions complete, QoE is sane for
// well-provisioned configurations, VAFS saves CPU energy vs the reactive
// baselines without giving up QoE, and runs are deterministic.
#include <gtest/gtest.h>

#include "core/session.h"

namespace vafs::core {
namespace {

SessionConfig base_config() {
  SessionConfig config;
  config.media_duration = sim::SimTime::seconds(60);
  config.net = NetProfile::kConstant;
  config.constant_mbps = 12.0;
  config.fixed_rep = 2;  // 720p
  config.seed = 7;
  return config;
}

TEST(SessionSmoke, OndemandCompletesCleanly) {
  SessionConfig config = base_config();
  config.governor = "ondemand";
  const SessionResult r = run_session(config);

  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.qoe.frames_presented, 1700u);  // 60 s * 30 fps, minus drops
  EXPECT_EQ(r.qoe.rebuffer_events, 0u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
  EXPECT_LT(r.qoe.startup_delay, sim::SimTime::seconds(5));
  EXPECT_GT(r.energy.cpu_mj, 0.0);
  EXPECT_GT(r.energy.radio_mj, 0.0);
}

TEST(SessionSmoke, VafsCompletesCleanly) {
  SessionConfig config = base_config();
  config.governor = "vafs";
  const SessionResult r = run_session(config);

  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.qoe.rebuffer_events, 0u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
  EXPECT_GT(r.vafs_plans, 100u);
  EXPECT_GT(r.vafs_setspeed_writes, 2u);
  EXPECT_GT(r.vafs_decode_mape, 0.0);
  EXPECT_LT(r.vafs_decode_mape, 0.5);
}

TEST(SessionSmoke, VafsSavesCpuEnergyVsOndemand) {
  SessionConfig config = base_config();
  config.governor = "ondemand";
  const SessionResult ondemand = run_session(config);
  config.governor = "vafs";
  const SessionResult vafs = run_session(config);

  ASSERT_TRUE(ondemand.finished);
  ASSERT_TRUE(vafs.finished);
  // The headline claim: meaningful CPU energy savings at preserved QoE.
  EXPECT_LT(vafs.energy.cpu_mj, ondemand.energy.cpu_mj * 0.9);
  EXPECT_LE(vafs.qoe.rebuffer_events, ondemand.qoe.rebuffer_events);
  EXPECT_LT(vafs.qoe.drop_ratio(), 0.01);
}

TEST(SessionSmoke, OracleLowerBoundsVafsWithCleanQoe) {
  SessionConfig config = base_config();
  config.fixed_rep = 3;  // 1080p: where prediction headroom costs the most
  config.governor = "vafs";
  const SessionResult vafs = run_session(config);
  config.governor = "vafs-oracle";
  const SessionResult oracle = run_session(config);

  ASSERT_TRUE(vafs.finished);
  ASSERT_TRUE(oracle.finished);
  // The oracle is a lower bound (within a whisker of noise)...
  EXPECT_LE(oracle.energy.cpu_mj, vafs.energy.cpu_mj * 1.02);
  // ...and perfect knowledge must not cost QoE.
  EXPECT_LT(oracle.qoe.drop_ratio(), 0.02);
  EXPECT_EQ(oracle.qoe.rebuffer_events, 0u);
}

TEST(SessionSmoke, DeterministicAcrossRuns) {
  SessionConfig config = base_config();
  config.governor = "vafs";
  const SessionResult a = run_session(config);
  const SessionResult b = run_session(config);

  EXPECT_EQ(a.energy.cpu_mj, b.energy.cpu_mj);
  EXPECT_EQ(a.qoe.frames_presented, b.qoe.frames_presented);
  EXPECT_EQ(a.clusters[0].freq_transitions, b.clusters[0].freq_transitions);
  EXPECT_EQ(a.wall.as_micros(), b.wall.as_micros());
}

TEST(SessionSmoke, TinyBandwidthStepWaitsForTheNextStep) {
  // At 1e-15 Mbps a segment would complete past 2^63 µs. The downloader
  // must wait for the 10 Mbps step at t = 1 s, as it does through an
  // outage, instead of re-pumping every microsecond (a million events per
  // simulated second). The wall-clock deadline bounds a regression.
  SessionConfig config = base_config();
  config.governor = "ondemand";
  config.net = NetProfile::kTrace;
  config.task_timeout_ms = 10 * 1000;
  config.trace = {{sim::SimTime::seconds(0), 0.0}, {sim::SimTime::seconds(1), 10.0}};
  const SessionResult outage = run_session(config);
  config.trace = {{sim::SimTime::seconds(0), 1e-15}, {sim::SimTime::seconds(1), 10.0}};
  const SessionResult tiny = run_session(config);

  ASSERT_TRUE(outage.finished);
  EXPECT_TRUE(tiny.finished);
  EXPECT_LT(tiny.sim_events, outage.sim_events + 1000);
}

}  // namespace
}  // namespace vafs::core
