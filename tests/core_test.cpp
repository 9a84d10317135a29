// Tests for the paper's contribution: the cycle-demand predictors and the
// VAFS userspace controller (attach/actuation through sysfs, cold start,
// demand planning, download handling, drop-recovery boost).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.h"
#include "core/vafs_controller.h"
#include "cpu/cpufreq_policy.h"
#include "cpu/cpufreq_sysfs.h"
#include "governors/registry.h"
#include "net/downloader.h"
#include "simcore/simulator.h"
#include "stream/player.h"
#include "video/content.h"

namespace vafs::core {
namespace {

// --------------------------------------------------------------- Predictor

TEST(Predictor, EwmaConvergesToConstant) {
  CycleDemandPredictor p({PredictorKind::kEwma, 8, 0.5, 0.9});
  for (int i = 0; i < 20; ++i) p.observe(100.0);
  EXPECT_NEAR(p.predict(), 100.0, 1e-9);
}

TEST(Predictor, EwmaWeightsRecentSamples) {
  CycleDemandPredictor p({PredictorKind::kEwma, 8, 0.5, 0.9});
  p.observe(100.0);
  p.observe(200.0);
  EXPECT_DOUBLE_EQ(p.predict(), 150.0);  // 0.5*200 + 0.5*100
}

TEST(Predictor, WindowMaxTracksPeakAndForgets) {
  CycleDemandPredictor p({PredictorKind::kWindowMax, 3, 0.25, 0.9});
  p.observe(10);
  p.observe(50);
  p.observe(20);
  EXPECT_EQ(p.predict(), 50.0);
  p.observe(20);  // 50 still in window (window=3: 50,20,20)... no: 20,20 and this
  p.observe(20);  // now window = {20, 20, 20}
  p.observe(20);
  EXPECT_EQ(p.predict(), 20.0);
}

TEST(Predictor, QuantileIsRobustToOutliers) {
  CycleDemandPredictor p({PredictorKind::kQuantile, 10, 0.25, 0.90});
  for (int i = 0; i < 9; ++i) p.observe(100.0);
  p.observe(10'000.0);  // single spike
  const double predicted = p.predict();
  EXPECT_GE(predicted, 100.0);
  EXPECT_LT(predicted, 10'000.0);  // p90-of-10 via rounding lands below the spike

  CycleDemandPredictor pmax({PredictorKind::kWindowMax, 10, 0.25, 0.90});
  for (int i = 0; i < 9; ++i) pmax.observe(100.0);
  pmax.observe(10'000.0);
  EXPECT_EQ(pmax.predict(), 10'000.0);  // max pays the spike
}

TEST(Predictor, NoHistoryPredictsZero) {
  CycleDemandPredictor p;
  EXPECT_EQ(p.predict(), 0.0);
  EXPECT_EQ(p.observations(), 0u);
}

TEST(Predictor, MapeTracksAccuracy) {
  CycleDemandPredictor p({PredictorKind::kEwma, 8, 1.0, 0.9});  // alpha=1: predict last
  p.observe(100);
  p.observe(110);  // APE = |100-110|/110
  p.observe(110);  // APE = 0
  EXPECT_EQ(p.ape_stats().count(), 2u);
  EXPECT_NEAR(p.mape(), (10.0 / 110.0 + 0.0) / 2.0, 1e-12);
}

TEST(Predictor, KindNames) {
  EXPECT_STREQ(predictor_kind_name(PredictorKind::kEwma), "ewma");
  EXPECT_STREQ(predictor_kind_name(PredictorKind::kWindowMax), "window-max");
  EXPECT_STREQ(predictor_kind_name(PredictorKind::kQuantile), "quantile");
}

// ------------------------------------------------------------ DecisionCore

/// The midrange pair: big (primary) and LITTLE (network stack).
DecisionGeometry big_little_geometry() {
  DecisionGeometry g;
  g.clusters.push_back(
      {{600'000, 900'000, 1'200'000, 1'500'000, 1'800'000, 2'100'000}, 1.0, 2'100'000.0});
  g.clusters.push_back({{300'000, 600'000, 900'000, 1'200'000, 1'400'000}, 1.7,
                        1'400'000.0 / 1.7});
  g.primary = 0;
  g.network = 1;
  return g;
}

/// One plan mid-playback with a 20 Mbps download in flight, after
/// `warm_frames` P-frame observations of 40 Mcycles each (1.2 GHz of
/// decode at 30 fps, more than LITTLE can retire).
DecisionResponse plan_while_downloading(const DecisionGeometry& geometry, bool race_to_idle,
                                        int warm_frames) {
  VafsConfig config;
  config.race_to_idle_downloads = race_to_idle;
  DecisionCore core(config, geometry);
  DecisionRequest req;
  req.player_state = DecisionPlayerState::kPlaying;
  req.frame_period_us = 33'333;
  req.current_rep = 2;
  req.decoded_ahead = 10;
  req.decoded_frames = 10;
  req.total_frames = 900;
  req.event = DecisionEvent::kDecodeComplete;
  req.want_plan = false;
  req.observe_rep = 2;
  req.observe_cycles = 40e6;
  for (int i = 0; i < warm_frames; ++i) core.decide(req);
  req.event = DecisionEvent::kReplan;
  req.want_plan = true;
  req.downloading = true;
  req.throughput_mbps = 20.0;
  return core.decide(req);
}

TEST(DecisionCore, RefusesRolesOutsideTheGeometry) {
  DecisionGeometry big_little = big_little_geometry();
  big_little.network = 2;
  EXPECT_THROW(DecisionCore(VafsConfig{}, big_little), std::invalid_argument);
  // One cluster has roles too: both must be cluster 0.
  DecisionGeometry one;
  one.clusters.push_back(big_little.clusters[0]);
  one.primary = 1;
  EXPECT_THROW(DecisionCore(VafsConfig{}, one), std::invalid_argument);
}

TEST(DecisionCore, RaceToIdleAblationRunsOnlyTheNetworkClusterFlatOut) {
  const DecisionGeometry geometry = big_little_geometry();
  const DecisionResponse race = plan_while_downloading(geometry, true, 3);
  const DecisionResponse burst = plan_while_downloading(geometry, false, 3);
  ASSERT_TRUE(race.planned);
  ASSERT_TRUE(burst.planned);
  ASSERT_EQ(burst.cluster_count, 2u);
  // Decode does not fit LITTLE and stays on big in both arms.
  EXPECT_EQ(race.decode_cluster, 0u);
  EXPECT_EQ(burst.decode_cluster, 0u);
  // Protocol processing alone fits LITTLE's floor; the ablation runs it at
  // LITTLE's top OPP and leaves big's decode plan as it was.
  EXPECT_EQ(race.target_khz[1], 300'000u);
  EXPECT_EQ(burst.target_khz[1], 1'400'000u);
  EXPECT_EQ(burst.target_khz[0], race.target_khz[0]);
  EXPECT_EQ(race.target_khz[0], 1'500'000u);
}

TEST(DecisionCore, RaceToIdleAblationPlansFmaxOnOneCluster) {
  // One cluster is both the decode and the network cluster: the ablation
  // plans its top OPP, from cold start on.
  DecisionGeometry geometry;
  geometry.clusters.push_back(big_little_geometry().clusters[0]);
  for (const int warm_frames : {0, 3}) {
    const DecisionResponse race = plan_while_downloading(geometry, true, warm_frames);
    const DecisionResponse burst = plan_while_downloading(geometry, false, warm_frames);
    ASSERT_EQ(burst.cluster_count, 1u);
    EXPECT_EQ(race.target_khz[0], 1'500'000u) << warm_frames;
    EXPECT_EQ(burst.target_khz[0], 2'100'000u) << warm_frames;
  }
}

// ---------------------------------------------------------- VafsController

/// The full device stack as a plain value so tests can build fresh worlds
/// at will (gtest fixtures cannot be instantiated directly).
struct VafsWorld {
  VafsWorld()
      : cpu_(sim_, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel()),
        radio_(sim_, net::RadioParams::lte()),
        bw_(20.0),
        manifest_(video::Manifest::typical_vod("t", sim::SimTime::seconds(24))),
        content_(11, video::ContentParams{}, &manifest_) {
    governors::register_standard(registry_);
    policy_ = std::make_unique<cpu::CpufreqPolicy>(sim_, cpu_, registry_, "ondemand");
    binder_ = std::make_unique<cpu::CpufreqSysfs>(tree_, *policy_, 0);
    downloader_ = std::make_unique<net::Downloader>(sim_, radio_, bw_, &cpu_);
  }

  VafsController& make_controller(std::size_t rep, VafsConfig config = {}) {
    player_ = std::make_unique<stream::Player>(sim_, cpu_, *downloader_, content_,
                                               std::make_unique<stream::FixedAbr>(rep));
    controller_ = std::make_unique<VafsController>(
        sim_, tree_, std::vector<std::string>{binder_->dir()}, nullptr, *player_, config);
    return *controller_;
  }

  bool run_session_to_finish() {
    bool done = false;
    player_->start([&] { done = true; });
    while (!done && sim_.now() < sim::SimTime::seconds(300)) {
      if (!sim_.step()) break;
    }
    return done;
  }

  sim::Simulator sim_;
  cpu::CpuModel cpu_;
  cpu::GovernorRegistry registry_;
  sysfs::Tree tree_;
  net::RadioModel radio_;
  net::ConstantBandwidth bw_;
  video::Manifest manifest_;
  video::ContentModel content_;
  std::unique_ptr<cpu::CpufreqPolicy> policy_;
  std::unique_ptr<cpu::CpufreqSysfs> binder_;
  std::unique_ptr<net::Downloader> downloader_;
  std::unique_ptr<stream::Player> player_;
  std::unique_ptr<VafsController> controller_;
};

class VafsTest : public ::testing::Test, protected VafsWorld {};

TEST_F(VafsTest, AttachSwitchesToUserspaceViaSysfs) {
  VafsController& ctl = make_controller(2);
  ASSERT_TRUE(ctl.attach());
  EXPECT_EQ(policy_->governor_name(), "userspace");
  EXPECT_GT(ctl.setspeed_writes(), 0u);
  EXPECT_GT(ctl.last_planned_khz(), 0u);
}

TEST_F(VafsTest, AttachFailsWithoutPolicyDirectory) {
  player_ = std::make_unique<stream::Player>(sim_, cpu_, *downloader_, content_,
                                             std::make_unique<stream::FixedAbr>(0));
  VafsController ctl(sim_, tree_, {"devices/no/such/policy"}, nullptr, *player_);
  EXPECT_FALSE(ctl.attach());
}

TEST_F(VafsTest, ColdStartPlansConservativeMid) {
  VafsConfig config;
  config.cold_start_fraction = 0.6;
  VafsController& ctl = make_controller(2, config);
  ASSERT_TRUE(ctl.attach());
  // 0.6 * 2.1 GHz = 1.26 GHz -> snaps up to 1.5 GHz.
  EXPECT_EQ(ctl.last_planned_khz(), 1'500'000u);
  EXPECT_EQ(policy_->cur_khz(), 1'500'000u);
}

TEST_F(VafsTest, SteadyStatePlansNearDecodeDemand) {
  VafsController& ctl = make_controller(2);  // 720p ~ 430 MHz demand
  ASSERT_TRUE(ctl.attach());
  ASSERT_TRUE(run_session_to_finish());
  // With a 15 % margin the playing-phase plan (no download in flight)
  // should sit at 600 or 900 MHz, never max.
  const auto* predictor = ctl.decode_predictor(2);
  ASSERT_NE(predictor, nullptr);
  EXPECT_GT(predictor->observations(), 500u);
  const double fps = 30.0;
  const double demand_khz = predictor->predict() * fps * 1.15 / 1000.0;
  EXPECT_GT(demand_khz, 300'000.0);
  EXPECT_LT(demand_khz, 900'000.0);
  EXPECT_LT(ctl.decode_mape(), 0.5);
}

TEST_F(VafsTest, QoePreservedAtEveryQuality) {
  for (std::size_t rep = 0; rep < 4; ++rep) {
    VafsWorld fixture;  // fresh world per rep
    VafsController& ctl = fixture.make_controller(rep);
    ASSERT_TRUE(ctl.attach());
    ASSERT_TRUE(fixture.run_session_to_finish()) << "rep " << rep;
    EXPECT_LT(fixture.player_->qoe().drop_ratio(), 0.02) << "rep " << rep;
    EXPECT_EQ(fixture.player_->qoe().rebuffer_events, 0u) << "rep " << rep;
  }
}

TEST_F(VafsTest, RaceToIdleAblationBurnsMoreEnergy) {
  double energy_race = 0, energy_burst = 0;
  {
    VafsWorld fixture;
    VafsConfig config;
    config.race_to_idle_downloads = true;
    fixture.make_controller(2, config).attach();
    ASSERT_TRUE(fixture.run_session_to_finish());
    energy_race = fixture.cpu_.energy_mj();
  }
  {
    VafsWorld fixture;
    VafsConfig config;
    config.race_to_idle_downloads = false;  // burst to max during downloads
    fixture.make_controller(2, config).attach();
    ASSERT_TRUE(fixture.run_session_to_finish());
    energy_burst = fixture.cpu_.energy_mj();
  }
  EXPECT_LT(energy_race, energy_burst);
}

TEST_F(VafsTest, LargerMarginCostsMoreEnergy) {
  double lean = 0, fat = 0;
  {
    VafsWorld fixture;
    VafsConfig config;
    config.safety_margin = 0.05;
    fixture.make_controller(2, config).attach();
    ASSERT_TRUE(fixture.run_session_to_finish());
    lean = fixture.cpu_.energy_mj();
  }
  {
    VafsWorld fixture;
    VafsConfig config;
    config.safety_margin = 0.60;
    fixture.make_controller(2, config).attach();
    ASSERT_TRUE(fixture.run_session_to_finish());
    fat = fixture.cpu_.energy_mj();
  }
  EXPECT_LT(lean, fat);
}

TEST_F(VafsTest, DetachRestoresGovernor) {
  VafsController& ctl = make_controller(1);
  ASSERT_TRUE(ctl.attach());
  ASSERT_EQ(policy_->governor_name(), "userspace");
  ctl.detach("ondemand");
  EXPECT_EQ(policy_->governor_name(), "ondemand");
  const std::uint64_t writes = ctl.setspeed_writes();
  ctl.plan_now();  // must be a no-op when detached
  EXPECT_EQ(ctl.setspeed_writes(), writes);
}

TEST_F(VafsTest, SetspeedWritesAreDeduplicated) {
  VafsController& ctl = make_controller(2);
  ASSERT_TRUE(ctl.attach());
  ASSERT_TRUE(run_session_to_finish());
  // Thousands of plans (one per frame), but only a handful of distinct
  // frequency changes should reach sysfs.
  EXPECT_GT(ctl.plan_count(), 700u);
  EXPECT_LT(ctl.setspeed_writes(), ctl.plan_count() / 10);
}

TEST_F(VafsTest, ClassAwareSplitsPredictorsByFrameType) {
  VafsConfig config;
  config.class_aware = true;
  VafsController& ctl = make_controller(2, config);
  ASSERT_TRUE(ctl.attach());
  ASSERT_TRUE(run_session_to_finish());

  const auto* p = ctl.decode_predictor(2, /*idr=*/false);
  const auto* idr = ctl.decode_predictor(2, /*idr=*/true);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(idr, nullptr);
  // 24 s * 30 fps = 720 frames, GOP 30 => 24 IDR + 696 P.
  EXPECT_EQ(idr->observations(), 24u);
  EXPECT_EQ(p->observations(), 696u);
  // IDR frames cost several times a P frame to decode.
  EXPECT_GT(idr->predict(), 1.5 * p->predict());
}

TEST_F(VafsTest, ClassAwareImprovesMapeOnIntraHeavyContent) {
  auto run_with = [](bool class_aware) {
    VafsWorld world;
    // Intra-heavy content: short GOP, big IDR frames.
    video::ContentParams params;
    params.gop_frames = 12;
    params.idr_weight = 6.0;
    world.content_ = video::ContentModel(11, params, &world.manifest_);
    VafsConfig config;
    config.class_aware = class_aware;
    world.make_controller(2, config).attach();
    EXPECT_TRUE(world.run_session_to_finish());
    return world.controller_->decode_mape();
  };
  const double mixed = run_with(false);
  const double split = run_with(true);
  EXPECT_LT(split, mixed * 0.8);
}

TEST_F(VafsTest, DroppedFrameTriggersBoost) {
  VafsConfig config;
  // Sabotage: trust one observation and plan with no margin from a
  // predictor fed artificially tiny costs — then verify the drop path
  // raises the plan. We emulate by planning at min via a huge negative...
  // Simpler: directly exercise the boost plumbing.
  VafsController& ctl = make_controller(2, config);
  ASSERT_TRUE(ctl.attach());
  bool done = false;
  player_->start([&] { done = true; });
  // Run until a few decodes have happened so the predictor is warm.
  while (!done && player_->decoded_frames() < 40) sim_.step();
  const std::uint32_t before = ctl.last_planned_khz();
  ctl.on_frame_dropped(player_->playhead_frame());
  const std::uint32_t after = ctl.last_planned_khz();
  EXPECT_GE(after, before);  // boost moves one OPP up (or stays at max)
  EXPECT_GT(after, 300'000u);
}


// ---------------------------------------------------------------- watchdog

TEST_F(VafsTest, WatchdogFailsOverOnConsecutiveWriteErrors) {
  VafsConfig config;
  config.watchdog.enabled = true;
  config.watchdog.write_error_threshold = 2;
  config.watchdog.hysteresis = sim::SimTime::seconds(1);
  VafsController& ctl = make_controller(2, config);

  bool fail_writes = true;
  tree_.set_write_interceptor(
      [&](std::string_view path, std::string_view) -> std::optional<sysfs::Errno> {
        if (fail_writes && path.ends_with("/scaling_setspeed")) return sysfs::Errno::kAccess;
        return std::nullopt;
      });

  // Governor switch succeeds, the first plan write is rejected (1 of 2).
  ASSERT_TRUE(ctl.attach());
  EXPECT_FALSE(ctl.in_fallback());
  EXPECT_EQ(ctl.sysfs_write_errors(), 1u);

  // Second rejection trips the failover: the policy goes back to ondemand.
  ctl.plan_now();
  EXPECT_TRUE(ctl.in_fallback());
  EXPECT_EQ(ctl.fallback_entries(), 1u);
  EXPECT_EQ(policy_->governor_name(), "ondemand");

  // While failed over the controller stops planning entirely.
  const auto writes_before = ctl.sysfs_write_errors();
  ctl.plan_now();
  EXPECT_EQ(ctl.sysfs_write_errors(), writes_before);

  // Channel recovers; after a clean hysteresis the controller re-takes
  // the policy and replans.
  fail_writes = false;
  sim_.run_until(sim_.now() + sim::SimTime::seconds(3));
  EXPECT_FALSE(ctl.in_fallback());
  EXPECT_EQ(policy_->governor_name(), "userspace");
  EXPECT_GT(ctl.setspeed_writes(), 0u);
  EXPECT_GT(ctl.fallback_time(), sim::SimTime::zero());
}

TEST_F(VafsTest, WatchdogPinMaxModeRunsFlatOut) {
  VafsConfig config;
  config.watchdog.enabled = true;
  config.watchdog.miss_threshold = 3;
  config.watchdog.miss_window = sim::SimTime::seconds(2);
  config.watchdog.mode = VafsWatchdogConfig::Mode::kPinMax;
  config.watchdog.hysteresis = sim::SimTime::seconds(30);  // stay in fallback
  VafsController& ctl = make_controller(2, config);
  ASSERT_TRUE(ctl.attach());

  // A burst of deadline misses inside the window trips the failover.
  ctl.on_frame_dropped(1);
  ctl.on_frame_dropped(2);
  EXPECT_FALSE(ctl.in_fallback());
  ctl.on_frame_dropped(3);
  EXPECT_TRUE(ctl.in_fallback());
  // kPinMax keeps the userspace governor but parks at fmax.
  EXPECT_EQ(policy_->governor_name(), "userspace");
  EXPECT_EQ(policy_->cur_khz(), 2'100'000u);
}

TEST_F(VafsTest, WatchdogMissWindowTumbles) {
  VafsConfig config;
  config.watchdog.enabled = true;
  config.watchdog.miss_threshold = 3;
  config.watchdog.miss_window = sim::SimTime::seconds(1);
  VafsController& ctl = make_controller(2, config);
  ASSERT_TRUE(ctl.attach());

  // Two misses, then a quiet gap longer than the window: the counter
  // restarts, so two more misses do not trip it.
  ctl.on_frame_dropped(1);
  ctl.on_frame_dropped(2);
  sim_.run_until(sim_.now() + sim::SimTime::seconds(2));
  ctl.on_frame_dropped(3);
  ctl.on_frame_dropped(4);
  EXPECT_FALSE(ctl.in_fallback());
  ctl.on_frame_dropped(5);
  EXPECT_TRUE(ctl.in_fallback());
}

TEST_F(VafsTest, WatchdogDisabledCountsErrorsWithoutFailover) {
  VafsConfig config;  // watchdog off (default)
  VafsController& ctl = make_controller(2, config);
  bool fail_writes = false;
  tree_.set_write_interceptor(
      [&](std::string_view path, std::string_view) -> std::optional<sysfs::Errno> {
        if (fail_writes && path.ends_with("/scaling_setspeed")) return sysfs::Errno::kAccess;
        return std::nullopt;
      });
  ASSERT_TRUE(ctl.attach());
  fail_writes = true;
  ctl.on_frame_dropped(1);  // boost: forces a higher target -> a write
  EXPECT_GT(ctl.sysfs_write_errors(), 0u);
  EXPECT_FALSE(ctl.in_fallback());
  EXPECT_EQ(ctl.fallback_entries(), 0u);
  // Recovery is plan-driven: once writes succeed again the controller
  // carries on as if nothing happened.
  fail_writes = false;
  ctl.plan_now();
  EXPECT_FALSE(ctl.in_fallback());
}

TEST_F(VafsTest, WatchdogAttachBootsIntoFallbackWhenGovernorWriteFails) {
  VafsConfig config;
  config.watchdog.enabled = true;
  config.watchdog.hysteresis = sim::SimTime::seconds(1);
  VafsController& ctl = make_controller(2, config);
  bool fail_governor = true;
  tree_.set_write_interceptor(
      [&](std::string_view path, std::string_view) -> std::optional<sysfs::Errno> {
        if (fail_governor && path.ends_with("/scaling_governor")) return sysfs::Errno::kAccess;
        return std::nullopt;
      });
  // Without the watchdog this is a hard setup failure; with it the
  // controller attaches degraded and keeps retrying the takeover.
  ASSERT_TRUE(ctl.attach());
  EXPECT_TRUE(ctl.in_fallback());
  EXPECT_EQ(policy_->governor_name(), "ondemand");  // never switched

  fail_governor = false;
  sim_.run_until(sim_.now() + sim::SimTime::seconds(3));
  EXPECT_FALSE(ctl.in_fallback());
  EXPECT_EQ(policy_->governor_name(), "userspace");
}

TEST_F(VafsTest, SessionUnderSysfsFaultsFinishesWithFallbackResidency) {
  VafsConfig config;
  config.watchdog.enabled = true;
  config.watchdog.write_error_threshold = 2;
  config.watchdog.hysteresis = sim::SimTime::seconds(2);
  VafsController& ctl = make_controller(2, config);

  // Writes fail during a mid-session window, as the fault injector would
  // make them.
  tree_.set_write_interceptor(
      [this](std::string_view path, std::string_view) -> std::optional<sysfs::Errno> {
        if (!path.ends_with("/scaling_setspeed")) return std::nullopt;
        const auto now = sim_.now();
        if (now >= sim::SimTime::seconds(4) && now < sim::SimTime::seconds(8)) {
          return sysfs::Errno::kAccess;
        }
        return std::nullopt;
      });
  // Steady-state plans dedup to zero writes; frame drops inside the window
  // force boost writes, which is exactly the situation where a wedged
  // sysfs knob would otherwise leave the governor stuck mid-boost.
  sim_.at(sim::SimTime::seconds(5), [&ctl] { ctl.on_frame_dropped(1); });
  sim_.at(sim::SimTime::millis(5'500), [&ctl] { ctl.on_frame_dropped(2); });
  ASSERT_TRUE(ctl.attach());
  EXPECT_TRUE(run_session_to_finish());
  EXPECT_GT(ctl.fallback_entries(), 0u);
  EXPECT_FALSE(ctl.in_fallback());  // re-engaged once the window passed
  EXPECT_GT(ctl.fallback_time(), sim::SimTime::zero());
}

}  // namespace
}  // namespace vafs::core
