// Tests for the streaming layer: ABR decisions on synthetic contexts, and
// the player pipeline end to end against a controlled CPU and network.
#include <gtest/gtest.h>

#include <memory>

#include "cpu/cpu_model.h"
#include "net/downloader.h"
#include "net/radio.h"
#include "simcore/simulator.h"
#include "stream/abr.h"
#include "stream/player.h"
#include "video/content.h"

namespace vafs::stream {
namespace {

// ------------------------------------------------------------------- ABR

class AbrTest : public ::testing::Test {
 protected:
  AbrTest() : manifest_(video::Manifest::typical_vod("t", sim::SimTime::seconds(60))) {}

  AbrContext ctx(double mbps, double buffer_s) {
    AbrContext c;
    c.throughput_mbps = mbps;
    c.buffer_level = sim::SimTime::seconds_f(buffer_s);
    c.manifest = &manifest_;
    return c;
  }

  video::Manifest manifest_;
};

TEST_F(AbrTest, FixedAlwaysReturnsItsRep) {
  FixedAbr abr(3);
  EXPECT_EQ(abr.choose(ctx(0.1, 0)), 3u);
  EXPECT_EQ(abr.choose(ctx(100, 60)), 3u);
}

TEST_F(AbrTest, RateBasedScalesWithThroughput) {
  RateBasedAbr abr(0.8);
  EXPECT_EQ(abr.choose(ctx(0.0, 10)), 0u);   // no estimate: lowest
  EXPECT_EQ(abr.choose(ctx(1.0, 10)), 0u);   // 0.8 Mbps budget
  EXPECT_EQ(abr.choose(ctx(2.0, 10)), 1u);   // 1.6 Mbps >= 1.2M
  EXPECT_EQ(abr.choose(ctx(4.0, 10)), 2u);   // 3.2 Mbps >= 2.5M
  EXPECT_EQ(abr.choose(ctx(10.0, 10)), 3u);  // 8 Mbps >= 5M
}

TEST_F(AbrTest, BufferBasedMapsReservoirToCushion) {
  BufferBasedAbr abr(sim::SimTime::seconds(5), sim::SimTime::seconds(15));
  EXPECT_EQ(abr.choose(ctx(99, 2)), 0u);    // below reservoir
  EXPECT_EQ(abr.choose(ctx(99, 5)), 0u);    // at reservoir
  EXPECT_EQ(abr.choose(ctx(99, 10)), 2u);   // midpoint: ~(3-1)*0.5 rounded
  EXPECT_EQ(abr.choose(ctx(99, 15)), 3u);   // at cushion
  EXPECT_EQ(abr.choose(ctx(99, 40)), 3u);   // above cushion
}

TEST_F(AbrTest, BolaLowBufferPicksBottomRung) {
  BolaAbr abr(sim::SimTime::seconds(12));
  EXPECT_EQ(abr.choose(ctx(99, 0)), 0u);
  EXPECT_EQ(abr.choose(ctx(99, 2)), 0u);
}

TEST_F(AbrTest, BolaFullBufferPicksTopRung) {
  BolaAbr abr(sim::SimTime::seconds(12));
  EXPECT_EQ(abr.choose(ctx(99, 12)), 3u);
}

TEST_F(AbrTest, BolaIsMonotoneInBufferLevel) {
  BolaAbr abr(sim::SimTime::seconds(12));
  std::size_t prev = 0;
  for (double level = 0.0; level <= 12.0; level += 0.5) {
    const std::size_t rep = abr.choose(ctx(99, level));
    EXPECT_GE(rep, prev) << "level " << level;
    prev = rep;
  }
  EXPECT_EQ(prev, 3u);
}

TEST_F(AbrTest, BolaIgnoresThroughputEstimate) {
  // BOLA is buffer-only by construction: the estimate must not matter.
  BolaAbr abr(sim::SimTime::seconds(12));
  EXPECT_EQ(abr.choose(ctx(0.01, 8)), abr.choose(ctx(100.0, 8)));
}

// ---------------------------------------------- ladder-switch behaviour

TEST_F(AbrTest, RateBasedSwitchesExactlyAtLadderBoundaries) {
  // The up-switch point for rung i is bitrate_i / safety. Pinning both
  // sides of every boundary pins the entire ladder-switch schedule — a
  // change to rep_index_for_bitrate's tie handling or the safety margin
  // shows up here, not as a silent QoE shift in the benches.
  const double safety = 0.8;
  RateBasedAbr abr(safety);
  for (std::size_t i = 1; i < manifest_.representation_count(); ++i) {
    const double boundary_mbps =
        static_cast<double>(manifest_.representation(i).bitrate_kbps) / 1000.0 / safety;
    EXPECT_EQ(abr.choose(ctx(boundary_mbps * 0.999, 10)), i - 1) << "rung " << i;
    EXPECT_EQ(abr.choose(ctx(boundary_mbps * 1.001, 10)), i) << "rung " << i;
  }
}

TEST_F(AbrTest, RateBasedHoldsItsRungAcrossInBandNoise) {
  // Throughput noise that stays inside one rung's budget band must cause
  // no ladder switch at all — the stability the smoothed estimate is
  // supposed to buy. The 720p band is budget ∈ [2500, 5000) kbps, i.e.
  // throughput ∈ [3.125, 6.25) Mbps at safety 0.8.
  RateBasedAbr abr(0.8);
  const std::size_t rung = abr.choose(ctx(4.0, 10));
  ASSERT_EQ(rung, 2u);
  for (double mbps = 3.2; mbps < 6.2; mbps += 0.05) {
    EXPECT_EQ(abr.choose(ctx(mbps, 10)), rung) << mbps << " Mbps";
  }
}

TEST_F(AbrTest, BufferBasedIsMonotoneAndStepsOneRungAtATime) {
  BufferBasedAbr abr(sim::SimTime::seconds(5), sim::SimTime::seconds(15));
  std::size_t prev = 0;
  for (double level = 0.0; level <= 20.0; level += 0.05) {
    const std::size_t rep = abr.choose(ctx(99, level));
    EXPECT_GE(rep, prev) << "level " << level;
    EXPECT_LE(rep - prev, 1u) << "level " << level;
    prev = rep;
  }
  EXPECT_EQ(prev, 3u);
}

TEST_F(AbrTest, BufferBasedSwitchPointsAreTheBandMidpoints) {
  // Linear map + nearest-rung rounding: the i-1 → i switch sits at
  // reservoir + (i - 0.5) / (reps - 1) · (cushion - reservoir).
  BufferBasedAbr abr(sim::SimTime::seconds(5), sim::SimTime::seconds(15));
  const double reservoir = 5.0;
  const double span = 10.0;
  const auto reps = static_cast<double>(manifest_.representation_count());
  for (std::size_t i = 1; i < manifest_.representation_count(); ++i) {
    const double sw = reservoir + (static_cast<double>(i) - 0.5) / (reps - 1.0) * span;
    EXPECT_EQ(abr.choose(ctx(99, sw - 0.01)), i - 1) << "switch " << i;
    EXPECT_EQ(abr.choose(ctx(99, sw + 0.01)), i) << "switch " << i;
  }
}

TEST_F(AbrTest, BolaHigherGammaIsMoreConservative) {
  // γp weights the rebuffer-avoidance term: at every buffer level a
  // larger γp must pick the same or a lower rung, never a higher one.
  BolaAbr eager(sim::SimTime::seconds(12), /*gamma_p=*/0.5);
  BolaAbr cautious(sim::SimTime::seconds(12), /*gamma_p=*/20.0);
  bool strict_somewhere = false;
  for (double level = 0.0; level <= 12.0; level += 0.25) {
    const std::size_t hi = eager.choose(ctx(99, level));
    const std::size_t lo = cautious.choose(ctx(99, level));
    EXPECT_LE(lo, hi) << "level " << level;
    strict_somewhere |= lo < hi;
  }
  EXPECT_TRUE(strict_somewhere);  // the knob actually does something
}

// ----------------------------------------------------------------- Player

struct ObserverLog : PlayerObserver {
  int state_changes = 0;
  int segments_requested = 0;
  int segments_completed = 0;
  int decodes = 0;
  int presented = 0;
  int dropped = 0;
  std::vector<PlayerState> states;

  void on_state_change(PlayerState, PlayerState to) override {
    ++state_changes;
    states.push_back(to);
  }
  void on_segment_request(std::size_t, std::size_t, std::uint64_t) override {
    ++segments_requested;
  }
  void on_segment_complete(std::size_t, std::size_t, const net::FetchResult&) override {
    ++segments_completed;
  }
  void on_decode_complete(std::uint64_t, double, sim::SimTime, bool) override { ++decodes; }
  void on_frame_presented(std::uint64_t) override { ++presented; }
  void on_frame_dropped(std::uint64_t) override { ++dropped; }
};

class PlayerTest : public ::testing::Test {
 protected:
  PlayerTest()
      : cpu_(sim_, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel()),
        radio_(sim_, net::RadioParams::lte()),
        manifest_(video::Manifest::typical_vod("t", sim::SimTime::seconds(24))),
        content_(7, video::ContentParams{}, &manifest_) {}

  /// Builds the player against the given bandwidth process.
  Player& make_player(net::BandwidthProcess& bw, std::size_t rep,
                      PlayerConfig config = {}) {
    downloader_ = std::make_unique<net::Downloader>(sim_, radio_, bw, &cpu_);
    player_ = std::make_unique<Player>(sim_, cpu_, *downloader_, content_,
                                       std::make_unique<FixedAbr>(rep), config);
    return *player_;
  }

  /// Runs until the player finishes (or the cap).
  bool run_to_finish(sim::SimTime cap = sim::SimTime::seconds(300)) {
    bool done = false;
    player_->start([&] { done = true; });
    while (!done && sim_.now() < cap) {
      if (!sim_.step()) break;
    }
    return done;
  }

  sim::Simulator sim_;
  cpu::CpuModel cpu_;
  net::RadioModel radio_;
  video::Manifest manifest_;
  video::ContentModel content_;
  std::unique_ptr<net::Downloader> downloader_;
  std::unique_ptr<Player> player_;
};

TEST_F(PlayerTest, HappyPathPresentsEveryFrame) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 2);
  ASSERT_TRUE(run_to_finish());
  EXPECT_EQ(p.state(), PlayerState::kFinished);
  EXPECT_EQ(p.qoe().frames_presented, 720u);  // 24 s * 30 fps
  EXPECT_EQ(p.qoe().frames_dropped, 0u);
  EXPECT_EQ(p.qoe().rebuffer_events, 0u);
  EXPECT_GT(p.qoe().startup_delay, sim::SimTime::zero());
  EXPECT_LT(p.qoe().startup_delay, sim::SimTime::seconds(3));
  EXPECT_DOUBLE_EQ(p.qoe().mean_bitrate_kbps, 2500.0);
}

TEST_F(PlayerTest, BufferRespectsTarget) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(50.0);
  PlayerConfig config;
  config.buffer_target = sim::SimTime::seconds(8);
  Player& p = make_player(bw, 0, config);

  sim::SimTime peak;
  bool done = false;
  p.start([&] { done = true; });
  while (!done && sim_.step()) {
    peak = std::max(peak, p.buffer_level());
  }
  // Never more than target + one segment (the one that was in flight).
  EXPECT_LE(peak, sim::SimTime::seconds(12));
  EXPECT_GT(peak, sim::SimTime::seconds(7));
}

TEST_F(PlayerTest, SlowCpuDropsFramesButFinishes) {
  // Pin min frequency and stream 1080p: decode demand (~900 MHz) far
  // exceeds 300 MHz, so most frames miss their vsync.
  cpu_.set_frequency(300'000);
  net::ConstantBandwidth bw(30.0);
  Player& p = make_player(bw, 3);
  ASSERT_TRUE(run_to_finish());
  EXPECT_GT(p.qoe().drop_ratio(), 0.5);
  EXPECT_EQ(p.qoe().deadline_misses, p.qoe().frames_dropped);
  EXPECT_EQ(p.qoe().frames_presented + p.qoe().frames_dropped, 720u);
}

TEST_F(PlayerTest, OutageCausesRebufferAndRecovery) {
  cpu_.set_frequency(2'100'000);
  // 12 Mbps, outage between t=6s and t=16s, then recovery.
  net::TraceBandwidth bw({{sim::SimTime::zero(), 12.0},
                          {sim::SimTime::seconds(6), 0.05},
                          {sim::SimTime::seconds(16), 12.0}},
                         /*loop=*/false);
  PlayerConfig config;
  config.buffer_target = sim::SimTime::seconds(6);  // small buffer: vulnerable
  Player& p = make_player(bw, 2, config);
  ASSERT_TRUE(run_to_finish());
  EXPECT_GE(p.qoe().rebuffer_events, 1u);
  EXPECT_GT(p.qoe().rebuffer_time, sim::SimTime::seconds(1));
  EXPECT_EQ(p.qoe().frames_presented + p.qoe().frames_dropped, 720u);
}

TEST_F(PlayerTest, ObserverSeesFullPipeline) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 1);
  ObserverLog log;
  p.add_observer(&log);
  ASSERT_TRUE(run_to_finish());
  EXPECT_EQ(log.segments_requested, 6);  // 24 s / 4 s
  EXPECT_EQ(log.segments_completed, 6);
  EXPECT_EQ(log.decodes, 720);
  EXPECT_EQ(log.presented, 720);
  EXPECT_EQ(log.dropped, 0);
  ASSERT_GE(log.states.size(), 3u);
  EXPECT_EQ(log.states.front(), PlayerState::kStartup);
  EXPECT_EQ(log.states.back(), PlayerState::kFinished);
}

TEST_F(PlayerTest, RepOfFrameMatchesSegments) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  downloader_ = std::make_unique<net::Downloader>(sim_, radio_, bw, &cpu_);
  // Rate ABR on a fast link: first segment at rep 0 (no estimate), later
  // segments upgrade.
  player_ = std::make_unique<Player>(sim_, cpu_, *downloader_, content_,
                                     std::make_unique<RateBasedAbr>(0.8), PlayerConfig{});
  bool done = false;
  player_->start([&] { done = true; });
  while (!done && sim_.step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(player_->rep_of_frame(0), 0u);           // conservative start
  EXPECT_GT(player_->rep_of_frame(719), 0u);         // upgraded later
  EXPECT_GE(player_->qoe().quality_switches, 1u);
  EXPECT_GT(player_->qoe().mean_bitrate_kbps, 800.0);
}

TEST_F(PlayerTest, DecodeAheadWindowIsBounded) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  PlayerConfig config;
  config.decode_ahead_frames = 3;
  Player& p = make_player(bw, 0, config);
  bool done = false;
  p.start([&] { done = true; });
  std::uint64_t max_ahead = 0;
  while (!done && sim_.step()) {
    max_ahead = std::max(max_ahead, p.decoded_ahead());
  }
  EXPECT_LE(max_ahead, 4u);  // window + the one in flight at sampling time
  EXPECT_GE(max_ahead, 2u);
}

TEST_F(PlayerTest, PlayedTimeMatchesPlayhead) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 0);
  ASSERT_TRUE(run_to_finish());
  EXPECT_EQ(p.playhead_frame(), 720u);
  // 720 frames at the integer-µs frame period (33333 µs) — within one
  // frame's rounding of the nominal 24 s.
  EXPECT_EQ(p.played(), p.frame_period() * 720);
  EXPECT_NEAR(p.played().as_seconds_f(), 24.0, 0.001);
  EXPECT_EQ(p.total_frames(), 720u);
}

TEST_F(PlayerTest, ThroughputEstimateConverges) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(10.0);
  Player& p = make_player(bw, 0);
  ASSERT_TRUE(run_to_finish());
  EXPECT_NEAR(p.throughput_estimate_mbps(), 10.0, 2.5);
}

TEST_F(PlayerTest, SeekForwardSkipsContent) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 1);
  // At t=6 s (playing), jump to media time 16 s (segment 4 of 6).
  sim_.at(sim::SimTime::seconds(6), [&] {
    ASSERT_EQ(p.state(), PlayerState::kPlaying);
    EXPECT_TRUE(p.seek(sim::SimTime::seconds(16)));
    EXPECT_EQ(p.state(), PlayerState::kSeeking);
    EXPECT_EQ(p.playhead_frame(), 480u);  // 16 s * 30 fps
    EXPECT_EQ(p.buffer_level(), sim::SimTime::zero());
  });
  ASSERT_TRUE(run_to_finish());
  EXPECT_EQ(p.qoe().seek_count, 1u);
  EXPECT_GT(p.qoe().seek_time, sim::SimTime::zero());
  EXPECT_EQ(p.qoe().rebuffer_events, 0u);  // the stall is seek, not rebuffer
  // Skipped media is never presented: ~6 s played + 8 s after the seek.
  EXPECT_LT(p.qoe().frames_presented, 500u);
  EXPECT_GT(p.qoe().frames_presented, 350u);
  EXPECT_EQ(p.playhead_frame(), 720u);
}

TEST_F(PlayerTest, SeekBackwardRedownloads) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 1);
  const std::uint64_t media_bytes = [&] {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < 6; ++s) total += content_.segment_bytes(1, s);
    return total;
  }();
  sim_.at(sim::SimTime::seconds(10), [&] {
    EXPECT_TRUE(p.seek(sim::SimTime::zero()));
    EXPECT_EQ(p.playhead_frame(), 0u);
  });
  ASSERT_TRUE(run_to_finish());
  // Rewatched content is fetched again.
  EXPECT_GT(downloader_->total_bytes_fetched(), media_bytes + media_bytes / 10);
  EXPECT_EQ(p.qoe().seek_count, 1u);
  // More frames than the media length get presented (replayed span).
  EXPECT_GT(p.qoe().frames_presented + p.qoe().frames_dropped, 720u);
}

TEST_F(PlayerTest, SeekWithInflightFetchIgnoresStaleSegment) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(3.0);  // slow: fetches are always in flight
  Player& p = make_player(bw, 1);
  sim_.at(sim::SimTime::seconds(9), [&] {
    // Mid-download of some segment: seek far forward.
    EXPECT_TRUE(p.seek(sim::SimTime::seconds(20)));
  });
  ASSERT_TRUE(run_to_finish());
  // The stale segment must not have been pushed: playback ends cleanly at
  // the last frame with a consistent frame count.
  EXPECT_EQ(p.playhead_frame(), 720u);
  EXPECT_EQ(p.qoe().seek_count, 1u);
}

TEST_F(PlayerTest, SeekDuringStallCountsTheStallUpToTheSeek) {
  cpu_.set_frequency(2'100'000);
  // An outage from t = 6 s outlasts the 6 s buffer, so playback stalls.
  net::TraceBandwidth bw({{sim::SimTime::zero(), 12.0},
                          {sim::SimTime::seconds(6), 0.05},
                          {sim::SimTime::seconds(16), 12.0}},
                         /*loop=*/false);
  PlayerConfig config;
  config.buffer_target = sim::SimTime::seconds(6);
  Player& p = make_player(bw, 2, config);
  bool done = false;
  p.start([&] { done = true; });
  while (p.state() != PlayerState::kRebuffering && sim_.step()) {
  }
  ASSERT_EQ(p.state(), PlayerState::kRebuffering);
  const sim::SimTime stall_start = sim_.now();
  sim_.run_until(stall_start + sim::SimTime::seconds(1));
  ASSERT_EQ(p.state(), PlayerState::kRebuffering);  // still inside the outage
  const sim::SimTime seek_at = sim_.now();
  ASSERT_TRUE(p.seek(sim::SimTime::seconds(4)));
  EXPECT_EQ(p.qoe().rebuffer_time, seek_at - stall_start);

  while (!done && sim_.step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(p.qoe().rebuffer_events, 1u);  // the rest of the outage is seek time
  EXPECT_EQ(p.qoe().rebuffer_time, seek_at - stall_start);
  EXPECT_GT(p.qoe().seek_time, sim::SimTime::zero());
}

TEST_F(PlayerTest, SeekRejectedBeforePlayback) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 1);
  EXPECT_FALSE(p.seek(sim::SimTime::seconds(8)));  // kIdle
  bool done = false;
  p.start([&] { done = true; });
  EXPECT_FALSE(p.seek(sim::SimTime::seconds(8)));  // kStartup
  while (!done && sim_.step()) {
  }
  EXPECT_FALSE(p.seek(sim::SimTime::seconds(8)));  // kFinished
  EXPECT_EQ(p.qoe().seek_count, 0u);
}

TEST_F(PlayerTest, SeekTargetsClampToContent) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  Player& p = make_player(bw, 1);
  sim_.at(sim::SimTime::seconds(5), [&] {
    // Far past the end: snaps to the last segment.
    EXPECT_TRUE(p.seek(sim::SimTime::seconds(9999)));
    EXPECT_EQ(p.playhead_frame(), 600u);  // segment 5 of [0,6)
  });
  ASSERT_TRUE(run_to_finish());
  EXPECT_EQ(p.playhead_frame(), 720u);
}

TEST_F(PlayerTest, AudioPipelineAddsBackgroundLoad) {
  // Two self-contained worlds, identical but for the audio pipeline.
  auto run_world = [](double audio_cycles, double* busy_s, std::uint64_t* drops) {
    sim::Simulator simulator;
    cpu::CpuModel cpu_model(simulator, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel());
    cpu_model.set_frequency(2'100'000);
    net::RadioModel radio(simulator, net::RadioParams::lte());
    net::ConstantBandwidth bw(20.0);
    net::Downloader downloader(simulator, radio, bw, &cpu_model);
    video::Manifest manifest = video::Manifest::typical_vod("a", sim::SimTime::seconds(24));
    video::ContentModel content(7, video::ContentParams{}, &manifest);
    PlayerConfig config;
    config.audio_cycles_per_frame = audio_cycles;
    Player player(simulator, cpu_model, downloader, content,
                  std::make_unique<FixedAbr>(1), config);
    bool done = false;
    player.start([&] { done = true; });
    while (!done && simulator.step()) {
    }
    ASSERT_TRUE(done);
    *busy_s = cpu_model.total_busy_time().as_seconds_f();
    *drops = player.qoe().frames_dropped;
  };

  double busy_without = 0, busy_with = 0;
  std::uint64_t drops_without = 0, drops_with = 0;
  run_world(0.0, &busy_without, &drops_without);
  run_world(1.2e6, &busy_with, &drops_with);

  // 720 frames * 1.2 Mcycles at 2.1 GHz ~ 0.41 s extra busy time.
  EXPECT_NEAR(busy_with - busy_without, 720 * 1.2e6 / 2.1e9, 0.05);
  // Audio never gates presentation.
  EXPECT_EQ(drops_with, drops_without);
}

TEST_F(PlayerTest, LiveModeGatesFetchesOnAvailability) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(50.0);  // fast link: availability is the bottleneck
  PlayerConfig config;
  config.live = true;
  config.live_encode_delay = sim::SimTime::millis(500);
  config.startup_buffer = sim::SimTime::seconds(4);
  Player& p = make_player(bw, 1, config);

  std::vector<sim::SimTime> request_times;
  struct Probe : PlayerObserver {
    std::vector<sim::SimTime>* times;
    sim::Simulator* sim;
    void on_segment_request(std::size_t, std::size_t, std::uint64_t) override {
      times->push_back(sim->now());
    }
  } probe;
  probe.times = &request_times;
  probe.sim = &sim_;
  p.add_observer(&probe);

  ASSERT_TRUE(run_to_finish());
  ASSERT_EQ(request_times.size(), 6u);
  for (std::size_t n = 0; n < request_times.size(); ++n) {
    // Segment n is requested no earlier than its publish time.
    const sim::SimTime publish =
        sim::SimTime::seconds(4) * static_cast<std::int64_t>(n + 1) + sim::SimTime::millis(500);
    EXPECT_GE(request_times[n], publish) << "segment " << n;
    // And on a fast link, promptly after it (within one segment).
    EXPECT_LE(request_times[n], publish + sim::SimTime::seconds(4)) << "segment " << n;
  }
}

TEST_F(PlayerTest, LiveLatencyStaysBounded) {
  cpu_.set_frequency(2'100'000);
  net::ConstantBandwidth bw(20.0);
  PlayerConfig config;
  config.live = true;
  config.startup_buffer = sim::SimTime::seconds(4);
  config.rebuffer_resume = sim::SimTime::seconds(2);
  Player& p = make_player(bw, 1, config);
  ASSERT_TRUE(run_to_finish());
  // Joined at stream start: latency = first segment's publish + fetch,
  // and it must not grow across the session (no compounding stalls).
  EXPECT_GT(p.live_latency(), sim::SimTime::seconds(4));
  EXPECT_LT(p.live_latency(), sim::SimTime::seconds(10));
  EXPECT_EQ(p.qoe().frames_presented + p.qoe().frames_dropped, 720u);
}

}  // namespace
}  // namespace vafs::stream
