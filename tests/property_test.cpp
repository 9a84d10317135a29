// Property-based tests: parameterized sweeps asserting invariants that
// must hold for *every* point of the configuration space, not just the
// tuned scenarios of the unit tests.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/predictor.h"
#include "core/session.h"
#include "simcore/rng.h"

namespace vafs {
namespace {

// ============================================================ Session grid
//
// Every (governor, quality) cell must satisfy the session invariants:
// accounting conserves time and frames, energy components are positive,
// and residency fractions form a distribution.

using GridParam = std::tuple<std::string, std::size_t>;

class SessionGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SessionGrid, InvariantsHold) {
  const auto& [governor, rep] = GetParam();

  core::SessionConfig config;
  config.governor = governor;
  config.fixed_rep = rep;
  config.media_duration = sim::SimTime::seconds(40);
  config.net = core::NetProfile::kGood;
  config.seed = 17;

  const core::SessionResult r = core::run_session(config);

  ASSERT_TRUE(r.finished) << governor << " rep " << rep;

  // Frame conservation: every frame is presented or dropped.
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, 1200u);

  // Time: the session cannot finish faster than the media plays.
  EXPECT_GE(r.wall + sim::SimTime::millis(50), r.played);
  EXPECT_GT(r.played, sim::SimTime::seconds(39));

  // Energy components all positive and the meter is self-consistent.
  EXPECT_GT(r.energy.cpu_mj, 0.0);
  EXPECT_GT(r.energy.radio_mj, 0.0);
  EXPECT_GT(r.energy.display_mj, 0.0);
  EXPECT_NEAR(r.energy.total_mj(), r.energy.cpu_mj + r.energy.radio_mj + r.energy.display_mj,
              1e-9);
  EXPECT_GT(r.energy.mean_mw(), 0.0);

  // Residency fractions form a distribution over the OPPs.
  double total = 0.0;
  for (const auto& [khz, frac] : r.clusters[0].residency) {
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0 + 1e-9);
    total += frac;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);

  // Busy fraction is a fraction.
  EXPECT_GT(r.clusters[0].busy_fraction, 0.0);
  EXPECT_LE(r.clusters[0].busy_fraction, 1.0);

  // The radio connected at least once.
  EXPECT_GE(r.radio_promotions, 1u);

  // Fixed-frequency governors never transition after startup.
  if (governor == "performance" || governor == "powersave") {
    EXPECT_LE(r.clusters[0].freq_transitions, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GovernorQualityMatrix, SessionGrid,
    ::testing::Combine(::testing::Values("performance", "powersave", "ondemand", "conservative",
                                         "interactive", "schedutil", "vafs"),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{3})),
    [](const ::testing::TestParamInfo<GridParam>& p) {
      return std::get<0>(p.param) + "_rep" + std::to_string(std::get<1>(p.param));
    });

// ===================================================== Network-profile grid
//
// QoE-preserving governors must keep QoE across network profiles, and all
// accounting invariants must hold under bursty bandwidth too.

using NetParam = std::tuple<std::string, core::NetProfile>;

class NetworkGrid : public ::testing::TestWithParam<NetParam> {};

TEST_P(NetworkGrid, SessionsCompleteWithBoundedQoeDamage) {
  const auto& [governor, profile] = GetParam();

  core::SessionConfig config;
  config.governor = governor;
  config.fixed_rep = 1;  // 480p: streamable even on the poor profile
  config.media_duration = sim::SimTime::seconds(40);
  config.net = profile;
  config.seed = 23;

  const core::SessionResult r = core::run_session(config);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, 1200u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.02) << governor;
  // Startup must not be pathological even on the poor profile.
  EXPECT_LT(r.qoe.startup_delay, sim::SimTime::seconds(30));
}

INSTANTIATE_TEST_SUITE_P(
    GovernorNetworkMatrix, NetworkGrid,
    ::testing::Combine(::testing::Values("ondemand", "schedutil", "vafs"),
                       ::testing::Values(core::NetProfile::kPoor, core::NetProfile::kFair,
                                         core::NetProfile::kGood, core::NetProfile::kExcellent)),
    [](const ::testing::TestParamInfo<NetParam>& p) {
      return std::get<0>(p.param) + "_" +
             core::net_profile_name(std::get<1>(p.param));
    });

// ============================================================== Seed sweep
//
// Different seeds = different content + bandwidth draws. The headline
// ordering (VAFS <= ondemand CPU energy, QoE preserved) must hold for all
// of them, not just the demo seed.

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, VafsNeverLosesToOndemand) {
  core::SessionConfig config;
  config.media_duration = sim::SimTime::seconds(40);
  config.net = core::NetProfile::kFair;
  config.fixed_rep = 2;
  config.seed = GetParam();

  config.governor = "ondemand";
  const core::SessionResult ondemand = core::run_session(config);
  config.governor = "vafs";
  const core::SessionResult vafs = core::run_session(config);

  ASSERT_TRUE(ondemand.finished);
  ASSERT_TRUE(vafs.finished);
  EXPECT_LT(vafs.energy.cpu_mj, ondemand.energy.cpu_mj);
  EXPECT_LT(vafs.qoe.drop_ratio(), 0.02);
  EXPECT_LE(vafs.qoe.rebuffer_events, ondemand.qoe.rebuffer_events + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

// ======================================================= Predictor bounds
//
// For any observation stream, a windowed predictor's output must lie
// within [min, max] of everything it has seen (EWMA) or of its window
// (max / quantile).

using PredictorParam = std::tuple<core::PredictorKind, std::size_t, std::uint64_t>;

class PredictorProperty : public ::testing::TestWithParam<PredictorParam> {};

TEST_P(PredictorProperty, PredictionIsBoundedByHistory) {
  const auto& [kind, window, seed] = GetParam();
  core::PredictorConfig config;
  config.kind = kind;
  config.window = window;

  core::CycleDemandPredictor predictor(config);
  sim::Rng rng(seed);

  double all_min = 1e300, all_max = -1e300;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.lognormal(16.0, 0.4);  // ~ cycle-cost magnitudes
    predictor.observe(x);
    all_min = std::min(all_min, x);
    all_max = std::max(all_max, x);

    const double predicted = predictor.predict();
    EXPECT_GE(predicted, all_min * (1 - 1e-12));
    EXPECT_LE(predicted, all_max * (1 + 1e-12));
    EXPECT_GT(predicted, 0.0);
  }
  // After enough samples the APE statistics must be populated and finite.
  EXPECT_EQ(predictor.ape_stats().count(), 499u);
  EXPECT_GE(predictor.mape(), 0.0);
  EXPECT_LT(predictor.mape(), 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    KindsWindowsSeeds, PredictorProperty,
    ::testing::Combine(::testing::Values(core::PredictorKind::kEwma,
                                         core::PredictorKind::kWindowMax,
                                         core::PredictorKind::kQuantile),
                       ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{24},
                                         std::size_t{64}),
                       ::testing::Values(111u, 222u)),
    [](const ::testing::TestParamInfo<PredictorParam>& p) {
      const char* kind = core::predictor_kind_name(std::get<0>(p.param));
      std::string name = kind;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(p.param)) + "_s" +
             std::to_string(std::get<2>(p.param));
    });

// ==================================================== Margin monotonicity
//
// CPU energy must be monotonically non-decreasing in the VAFS safety
// margin (checked pairwise along a sweep), and the deadline-miss count
// non-increasing on average. This is the F6 ablation as a property.

class MarginSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarginSweep, EnergyGrowsWithMargin) {
  double prev_energy = 0.0;
  for (const double margin : {0.05, 0.25, 0.60}) {
    core::SessionConfig config;
    config.governor = "vafs";
    config.vafs.safety_margin = margin;
    config.media_duration = sim::SimTime::seconds(40);
    config.net = core::NetProfile::kGood;
    config.fixed_rep = 2;
    config.seed = GetParam();
    const core::SessionResult r = core::run_session(config);
    ASSERT_TRUE(r.finished);
    if (prev_energy > 0) {
      EXPECT_GE(r.energy.cpu_mj, prev_energy * 0.98)  // allow 2 % noise
          << "margin " << margin;
    }
    prev_energy = r.energy.cpu_mj;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarginSweep, ::testing::Values(7u, 19u, 42u));

// ===================================================== ABR x governor grid

using AbrParam = std::tuple<std::string, core::AbrKind>;

class AbrGrid : public ::testing::TestWithParam<AbrParam> {};

TEST_P(AbrGrid, AdaptiveSessionsComplete) {
  const auto& [governor, abr] = GetParam();
  core::SessionConfig config;
  config.governor = governor;
  config.abr = abr;
  config.media_duration = sim::SimTime::seconds(40);
  config.net = core::NetProfile::kFair;
  config.seed = 31;

  const core::SessionResult r = core::run_session(config);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, 1200u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.05);
  EXPECT_GT(r.qoe.mean_bitrate_kbps, 500.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AbrGrid,
    ::testing::Combine(::testing::Values("ondemand", "vafs"),
                       ::testing::Values(core::AbrKind::kFixed, core::AbrKind::kRate,
                                         core::AbrKind::kBuffer)),
    [](const ::testing::TestParamInfo<AbrParam>& p) {
      return std::get<0>(p.param) + "_" + core::abr_kind_name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace vafs
