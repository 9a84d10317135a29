// Randomized stress tests: throw seeded-random operation sequences and
// configuration draws at the substrates and assert the conservation
// invariants that must survive *any* usage, not just the scripted
// scenarios of the unit tests; and mutated input at the parsers (the vafsd
// frame wire and the record formats) that must parse exactly or refuse.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "cpu/cpu_model.h"
#include "fault/plan.h"
#include "fleet/checkpoint.h"
#include "fleet/io.h"
#include "net/downloader.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "simcore/rng.h"
#include "supervise/wire.h"
#include "tune/param_space.h"
#include "tune/tuner.h"

namespace vafs {
namespace {

// ------------------------------------------------------------ CPU fuzzing

class CpuRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuRandomOps, ConservationHoldsUnderRandomOperations) {
  sim::Simulator simulator;
  cpu::CpuModel cpu_model(simulator, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel());
  sim::Rng rng(GetParam());

  std::vector<cpu::CpuModel::TaskId> live_tasks;
  std::uint64_t submitted = 0, completed = 0, cancelled = 0;

  for (int op = 0; op < 400; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const double cycles = rng.uniform(1e4, 5e8);
      live_tasks.push_back(cpu_model.submit("fuzz", cycles, [&completed] { ++completed; }));
      ++submitted;
    } else if (dice < 0.6 && !live_tasks.empty()) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live_tasks.size()) - 1));
      if (cpu_model.cancel(live_tasks[idx])) ++cancelled;
      live_tasks.erase(live_tasks.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.75) {
      const auto& opps = cpu_model.opps();
      const auto pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(opps.size()) - 1));
      cpu_model.set_frequency(opps.at(pick).freq_khz);
    } else {
      simulator.run_until(simulator.now() +
                          sim::SimTime::micros(rng.uniform_int(100, 400'000)));
    }

    // Invariant: residency accounting conserves wall time at every step.
    sim::SimTime in_state;
    for (std::size_t i = 0; i < cpu_model.opps().size(); ++i) {
      in_state += cpu_model.time_in_state(i);
    }
    ASSERT_EQ(in_state, simulator.now());
    ASSERT_EQ(cpu_model.total_busy_time() + cpu_model.total_idle_time(), simulator.now());
  }

  // Drain: every surviving task completes exactly once.
  simulator.run();
  EXPECT_EQ(completed + cancelled, submitted);
  EXPECT_FALSE(cpu_model.busy());

  // Energy must be consistent with an independent residency-based recompute.
  double expect_mj = 0.0;
  for (std::size_t i = 0; i < cpu_model.opps().size(); ++i) {
    expect_mj += cpu_model.busy_time_in_state(i).as_seconds_f() *
                 cpu_model.power_model().busy_mw(cpu_model.opps().at(i));
  }
  expect_mj += cpu_model.total_idle_time().as_seconds_f() * cpu_model.power_model().idle_mw();
  expect_mj += static_cast<double>(cpu_model.transition_count()) *
               cpu_model.power_model().transition_uj() / 1000.0;
  EXPECT_NEAR(cpu_model.energy_mj(), expect_mj, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuRandomOps,
                         ::testing::Values(1u, 22u, 333u, 4444u, 55555u, 666666u));

// ----------------------------------------------------- Downloader fuzzing

class DownloaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DownloaderFuzz, RandomConcurrentFetchesAllCompleteExactly) {
  sim::Simulator simulator;
  net::RadioModel radio(simulator, net::RadioParams::lte());
  net::MarkovBandwidth::Params params;
  params.mean_mbps = 10;
  params.min_mbps = 0.5;
  params.max_mbps = 40;
  sim::Rng rng(GetParam());
  net::MarkovBandwidth bandwidth(params, rng.fork(0));
  cpu::CpuModel cpu_model(simulator, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel());
  cpu_model.set_frequency(2'100'000);
  net::Downloader downloader(simulator, radio, bandwidth, &cpu_model);

  const int kFetches = 60;
  std::uint64_t expected_bytes = 0;
  int completions = 0;
  for (int i = 0; i < kFetches; ++i) {
    const auto bytes = static_cast<std::uint64_t>(rng.uniform(1e3, 3e6));
    expected_bytes += bytes;
    const auto at = sim::SimTime::micros(rng.uniform_int(0, 60'000'000));
    simulator.at(at, [&downloader, &simulator, bytes, &completions] {
      downloader.fetch(bytes, [&completions, &simulator, bytes](const net::FetchResult& r) {
        ++completions;
        EXPECT_EQ(r.bytes, bytes);
        EXPECT_GE(r.first_byte, r.started);
        EXPECT_GE(r.completed, r.first_byte);
        EXPECT_LE(r.completed, simulator.now());
      });
    });
  }

  simulator.run();
  EXPECT_EQ(completions, kFetches);
  EXPECT_EQ(downloader.total_bytes_fetched(), expected_bytes);
  EXPECT_EQ(downloader.inflight(), 0u);
  EXPECT_EQ(radio.active_transfers(), 0u);
  EXPECT_EQ(radio.state(), net::RadioState::kIdle);  // tail fully drained
}

INSTANTIATE_TEST_SUITE_P(Seeds, DownloaderFuzz, ::testing::Values(7u, 77u, 777u, 7777u));

// -------------------------------------------------------- Session fuzzing

class SessionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionFuzz, RandomConfigurationsSatisfyInvariants) {
  sim::Rng rng(GetParam());

  const char* governors[] = {"performance", "powersave",   "ondemand", "conservative",
                             "interactive", "schedutil",   "vafs",     "vafs-oracle"};
  core::SessionConfig config;
  config.governor = governors[rng.uniform_int(0, 7)];
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 3));
  config.abr = static_cast<core::AbrKind>(rng.uniform_int(0, 3));
  config.net = static_cast<core::NetProfile>(rng.uniform_int(0, 3));  // poor..excellent
  config.media_duration = sim::SimTime::seconds(rng.uniform_int(12, 60));
  config.segment_duration = sim::SimTime::seconds(rng.uniform_int(2, 6));
  if (rng.bernoulli(0.4)) config.profile = device::profile("midrange");
  config.thermal_enabled = rng.bernoulli(0.3);
  config.profile.cpuidle = static_cast<cpu::CpuidleStrategy>(rng.uniform_int(0, 2));
  config.player.live = rng.bernoulli(0.25);
  if (config.player.live) {
    config.player.startup_buffer = config.segment_duration;
    config.player.buffer_target = config.segment_duration * 3;
    config.player.rebuffer_resume = config.segment_duration;
  }
  config.seed = rng.next_u64();

  const core::SessionResult r = core::run_session(config);

  ASSERT_TRUE(r.finished) << config.governor << " rep=" << config.fixed_rep;

  // Frame conservation.
  const auto fps = 30.0;
  const auto total = static_cast<std::uint64_t>(
      std::llround(config.media_duration.as_seconds_f() * fps));
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, total);

  // Energy sanity.
  EXPECT_GT(r.energy.cpu_mj, 0.0);
  EXPECT_GT(r.energy.radio_mj, 0.0);
  EXPECT_GT(r.energy.total_mj(), r.energy.cpu_mj);

  // Every cluster's residency is a distribution.
  for (const auto& c : r.clusters) {
    double frac_sum = 0.0;
    for (const auto& [khz, frac] : c.residency) frac_sum += frac;
    EXPECT_NEAR(frac_sum, 1.0, 1e-6) << c.name;
  }

  // big.LITTLE bookkeeping is consistent. Every *presented* frame was
  // decoded on one of the clusters; when frames are dropped the session
  // can end with the decode pipeline trailing the playhead, so the decode
  // count may fall short of the frame total but never exceed it.
  if (r.clusters.size() > 1) {
    std::uint64_t decoded = 0;
    double little_mj = 0.0;
    for (std::size_t c = 0; c < r.clusters.size(); ++c) {
      decoded += r.clusters[c].decode_frames;
      if (c > 0) little_mj += r.clusters[c].cpu_mj;
    }
    EXPECT_GE(decoded, r.qoe.frames_presented);
    EXPECT_LE(decoded, total);
    EXPECT_LE(little_mj, r.energy.cpu_mj);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1032));  // 32 random configs

// ---------------------------------------------------------- Fault fuzzing

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RandomFaultPlansNeverWedgeAndStayDeterministic) {
  sim::Rng rng(GetParam());

  core::SessionConfig config;
  config.governor = rng.bernoulli(0.5) ? "vafs" : "ondemand";
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.net = static_cast<core::NetProfile>(rng.uniform_int(0, 2));  // poor..good
  config.media_duration = sim::SimTime::seconds(rng.uniform_int(20, 45));
  config.seed = rng.next_u64();
  // Degraded-mode machinery always armed; outages can stall playback for a
  // while, so bound the wall clock well above the media length.
  config.downloader.attempt_timeout = sim::SimTime::seconds(rng.uniform_int(3, 8));
  config.downloader.max_attempts = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  config.vafs.watchdog.enabled = true;
  config.sim_cap = sim::SimTime::seconds(900);

  // Random fault plan: each kind independently on with a random intensity.
  if (rng.bernoulli(0.6)) {
    config.fault.outage_rate_per_min = rng.uniform(0.5, 3.0);
    config.fault.outage_mean_duration = sim::SimTime::millis(rng.uniform_int(500, 4000));
  }
  if (rng.bernoulli(0.6)) {
    config.fault.collapse_rate_per_min = rng.uniform(0.5, 3.0);
    config.fault.collapse_factor = rng.uniform(0.05, 0.5);
  }
  if (rng.bernoulli(0.5)) config.fault.fetch_failure_prob = rng.uniform(0.0, 0.15);
  if (rng.bernoulli(0.5)) config.fault.fetch_hang_prob = rng.uniform(0.0, 0.08);
  if (rng.bernoulli(0.5)) {
    config.fault.sysfs_fault_rate_per_min = rng.uniform(0.5, 4.0);
    config.fault.sysfs_fault_mean_duration = sim::SimTime::seconds(rng.uniform_int(1, 6));
  }
  if (rng.bernoulli(0.4)) {
    config.fault.decode_spike_rate_per_min = rng.uniform(0.5, 2.0);
    config.fault.decode_spike_factor = rng.uniform(1.2, 2.5);
  }
  if (rng.bernoulli(0.4)) {
    config.fault.thermal_cap_rate_per_min = rng.uniform(0.5, 2.0);
    config.fault.thermal_cap_fraction = rng.uniform(0.4, 0.9);
  }

  const core::SessionResult r = core::run_session(config);

  // Whatever the plan threw at it, the session finished (or hit the cap
  // having never wedged — finished must still be set by full playback).
  ASSERT_TRUE(r.finished) << "governor=" << config.governor;

  // Frame conservation survives faults.
  const auto total = static_cast<std::uint64_t>(
      std::llround(config.media_duration.as_seconds_f() * 30.0));
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, total);

  // Every cluster's residency is still a distribution and energy is
  // still positive.
  for (const auto& c : r.clusters) {
    double frac_sum = 0.0;
    for (const auto& [khz, frac] : c.residency) frac_sum += frac;
    EXPECT_NEAR(frac_sum, 1.0, 1e-6) << c.name;
  }
  EXPECT_GT(r.energy.cpu_mj, 0.0);

  // Injection bookkeeping is internally consistent: every timed-out
  // attempt became either a retry or a terminal failure.
  EXPECT_LE(r.fetch_timeouts, r.qoe.fetch_retries + r.qoe.fetch_failures);
  EXPECT_LE(r.vafs_fallback_time, r.wall);
  if (config.governor != "vafs") {
    EXPECT_EQ(r.vafs_fallback_entries, 0u);
    EXPECT_EQ(r.injected_sysfs_errors, 0u);
  }

  // Determinism: the identical faulted config replays bit-identically.
  const core::SessionResult again = core::run_session(config);
  EXPECT_EQ(r.energy.cpu_mj, again.energy.cpu_mj);
  EXPECT_EQ(r.qoe.rebuffer_time, again.qoe.rebuffer_time);
  EXPECT_EQ(r.qoe.fetch_retries, again.qoe.fetch_retries);
  EXPECT_EQ(r.fault_windows, again.fault_windows);
  EXPECT_EQ(r.vafs_fallback_time, again.vafs_fallback_time);
  EXPECT_EQ(r.wall, again.wall);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Range<std::uint64_t>(9000, 9016));  // 16 random plans

// ----------------------------------------------------------- Seek fuzzing

class SeekFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeekFuzz, RandomSeeksNeverWedgeTheSession) {
  sim::Rng rng(GetParam());

  core::SessionConfig config;
  config.governor = rng.bernoulli(0.5) ? "vafs" : "ondemand";
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.net = core::NetProfile::kGood;
  config.media_duration = sim::SimTime::seconds(40);
  config.seed = rng.next_u64();
  // Cap forward progress: random seeks can replay content, so bound wall.
  config.sim_cap = sim::SimTime::seconds(600);

  // Schedule 3 random seeks through the hooks.
  core::SessionHooks hooks;
  const std::int64_t seek_at_s[3] = {rng.uniform_int(3, 12), rng.uniform_int(13, 22),
                                     rng.uniform_int(23, 32)};
  const std::int64_t seek_to_s[3] = {rng.uniform_int(0, 39), rng.uniform_int(0, 39),
                                     rng.uniform_int(0, 39)};
  hooks.on_ready = [&](core::SessionLive& live) {
    for (int i = 0; i < 3; ++i) {
      live.sim->at(sim::SimTime::seconds(seek_at_s[i]),
                   [player = live.player, to = seek_to_s[i]] {
                     player->seek(sim::SimTime::seconds(to));  // may be rejected; fine
                   });
    }
  };

  const core::SessionResult r = core::run_session(config, hooks);
  ASSERT_TRUE(r.finished);
  EXPECT_LE(r.qoe.seek_count, 3u);
  // Whatever happened, playback ended at the real end of the content.
  EXPECT_GT(r.qoe.frames_presented, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeekFuzz,
                         ::testing::Values(11u, 222u, 3333u, 44444u, 555555u, 6666666u, 777u,
                                           88u));

// ----------------------------------------------------- ParamSpace fuzzing

class ParamSpaceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParamSpaceFuzz, RandomSpacesValidateAndSearchInBounds) {
  sim::Rng rng(GetParam());
  const std::vector<std::string> knobs = tune::ParamSpace::knob_names();

  // Malformed dimensions must be rejected up front — inverted ranges,
  // non-finite bounds, non-positive steps on non-degenerate ranges.
  {
    tune::ParamSpace bad;
    const std::string& knob = knobs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(knobs.size()) - 1))];
    EXPECT_THROW(bad.dim(knob, 1.0, 0.0, 0.1), std::invalid_argument);
    EXPECT_THROW(bad.dim(knob, 0.0, 1.0, -rng.uniform(0.01, 1.0)), std::invalid_argument);
    EXPECT_THROW(bad.dim(knob, 0.0, std::numeric_limits<double>::quiet_NaN(), 0.1),
                 std::invalid_argument);
    EXPECT_EQ(bad.dims(), 0u);  // nothing leaked into the space
  }

  // A random well-formed space: 1-4 distinct knobs, each either a
  // degenerate single point (lo == hi, zero width) or a small grid.
  tune::ParamSpace space;
  const int dims = static_cast<int>(rng.uniform_int(1, 4));
  std::size_t next_knob = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(knobs.size()) - 1));
  for (int d = 0; d < dims; ++d) {
    const std::string& knob = knobs[next_knob];
    next_knob = (next_knob + 1) % knobs.size();  // distinct by construction
    const double lo = rng.uniform(0.0, 10.0);
    if (rng.bernoulli(0.25)) {
      space.dim(knob, lo, lo, rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.1, 1.0));
    } else {
      const double step = rng.uniform(0.05, 2.0);
      space.dim(knob, lo, lo + step * rng.uniform_int(1, 6), step);
    }
  }

  // Every candidate the tuner asks any evaluator to score stays inside
  // the grid: right arity, every index < count. values() re-checks the
  // same bounds and must never throw on tuner-generated candidates —
  // including on zero-width (single-point) dimensions.
  class BoundsAssertingEvaluator : public tune::Evaluator {
   public:
    explicit BoundsAssertingEvaluator(const tune::ParamSpace& space) : space_(space) {}
    tune::RoundResult evaluate(const tune::RoundRequest& req) override {
      tune::RoundResult out;
      EXPECT_FALSE(req.candidates.empty());
      EXPECT_FALSE(req.seeds.empty());
      for (const tune::Candidate& c : req.candidates) {
        EXPECT_EQ(c.size(), space_.dims());
        for (std::size_t d = 0; d < c.size(); ++d) EXPECT_LT(c[d], space_.def(d).count());
        const std::vector<double> vals = space_.values(c);  // throws if out of bounds
        tune::Score s;
        s.evaluated = true;
        s.feasible = true;
        for (const double v : vals) s.energy_mj += v;
        s.runs = static_cast<std::int64_t>(req.seeds.size());
        out.scores.push_back(s);
      }
      return out;
    }
    const tune::ParamSpace& space_;
  };

  BoundsAssertingEvaluator eval(space);
  tune::TuneContext ctx;
  ctx.name = "fuzz/cell";
  tune::TunerOptions opts;
  opts.search_seed = rng.next_u64();
  opts.initial_candidates = static_cast<int>(rng.uniform_int(1, 12));
  opts.eta = static_cast<int>(rng.uniform_int(2, 5));
  opts.seed_schedule = {1};
  while (opts.seed_schedule.size() < static_cast<std::size_t>(rng.uniform_int(1, 3))) {
    opts.seed_schedule.push_back(opts.seed_schedule.back() + static_cast<int>(rng.uniform_int(1, 3)));
  }
  opts.refine_passes = static_cast<int>(rng.uniform_int(0, 3));
  opts.sensitivity = rng.bernoulli(0.5);
  const tune::TuneReport report = run_tuner(space, {ctx}, opts, &eval);
  ASSERT_TRUE(report.complete()) << report.error;
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_EQ(report.cells[0].best.size(), space.dims());
  for (std::size_t d = 0; d < space.dims(); ++d) {
    EXPECT_LT(report.cells[0].best[d], space.def(d).count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParamSpaceFuzz,
                         ::testing::Range<std::uint64_t>(4000, 4024));  // 24 random spaces

// ------------------------------------------------------- Wire-protocol fuzzing
//
// Seeded-random hostile clients against a live decision server: truncated
// frames, corrupted bytes, oversized lengths, garbage, and mid-frame
// disconnects. The contract under attack: every malformed input ends in a
// clean error reply or a dropped connection — never a crash, never a hang,
// and never collateral damage to a well-behaved client on the same server.

namespace wire_fuzz {

/// A raw socket client with poll-bounded reads: a server that stops
/// responding is a test failure, not a wedged test binary.
class RawClient {
 public:
  ~RawClient() { reset(); }

  bool connect_to(const std::string& path) {
    reset();
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      reset();
      return false;
    }
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  /// Best-effort send (the server may have already dropped us).
  void send_bytes(const std::uint8_t* data, std::size_t len) {
    if (fd_ < 0) return;
    (void)send(fd_, data, len, MSG_NOSIGNAL);
  }
  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    send_bytes(bytes.data(), bytes.size());
  }

  /// Half-close: tells the server no more bytes are coming, so a read
  /// blocked mid-frame sees EOF instead of waiting forever.
  void finish_sending() {
    if (fd_ >= 0) shutdown(fd_, SHUT_WR);
  }

  /// Reads until the server closes the connection. Returns the number of
  /// reply bytes drained, or -1 if the server neither replied nor closed
  /// within the deadline (a hang — the one unacceptable outcome).
  long drain_until_eof(int timeout_ms) {
    long total = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[512];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = poll(&pfd, 1, 50);
      if (pr <= 0) continue;
      const ssize_t n = read(fd_, buf, sizeof buf);
      if (n == 0) {
        reset();
        return total;  // clean drop
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        reset();
        return total;  // reset by peer: also a drop
      }
      total += static_cast<long>(n);
    }
    return -1;
  }

  /// Reads exactly one reply frame (header + payload). Returns false on
  /// drop or timeout; *hung set when the deadline passed with the
  /// connection still open.
  bool read_frame(serve::FrameHeader* header, std::vector<std::uint8_t>* payload,
                  bool* hung, int timeout_ms) {
    *hung = false;
    std::uint8_t head[serve::kWireHeaderSize];
    if (!read_exact(head, sizeof head, timeout_ms, hung)) return false;
    if (serve::decode_header(head, *header) != serve::WireError::kNone) return false;
    payload->resize(header->payload_len);
    if (header->payload_len > 0 &&
        !read_exact(payload->data(), payload->size(), timeout_ms, hung)) {
      return false;
    }
    return true;
  }

 private:
  bool read_exact(std::uint8_t* buf, std::size_t len, int timeout_ms, bool* hung) {
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (got < len) {
      if (std::chrono::steady_clock::now() >= deadline) {
        *hung = true;
        return false;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, 50) <= 0) continue;
      const ssize_t n = read(fd_, buf + got, len - got);
      if (n == 0) {
        reset();
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        reset();
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  void reset() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
};

core::DecisionStreamInfo valid_stream_info() {
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 900000, 1200000}, 1.0, 1'200'000.0});
  return info;
}

std::vector<std::uint8_t> valid_frame(sim::Rng& rng) {
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> payload;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      serve::encode_frame(frame, serve::MsgType::kPing, 0, payload);
      break;
    case 1:
      serve::encode_stream_info(payload, valid_stream_info());
      serve::encode_frame(frame, serve::MsgType::kHello,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
    case 2: {
      core::DecisionRequest req;
      req.event = core::DecisionEvent::kReplan;
      req.want_plan = true;
      req.now_us = rng.uniform_int(0, 1'000'000);
      serve::encode_request(payload, req);
      serve::encode_frame(frame, serve::MsgType::kDecide,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
    }
    default:
      serve::encode_frame(frame, serve::MsgType::kClose,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
  }
  return frame;
}

/// A payload of one of the four message types, with random field values.
std::vector<std::uint8_t> random_payload(sim::Rng& rng) {
  std::vector<std::uint8_t> out;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      core::DecisionStreamInfo info;
      info.config.safety_margin = std::bit_cast<double>(rng.next_u64());
      info.config.oracle = rng.bernoulli(0.5);
      info.geometry.clusters.resize(static_cast<std::size_t>(rng.uniform_int(1, 3)));
      for (auto& cl : info.geometry.clusters) {
        cl.available_khz.resize(static_cast<std::size_t>(rng.uniform_int(1, 5)));
        for (auto& khz : cl.available_khz) khz = static_cast<std::uint32_t>(rng.next_u64());
        cl.capacity_khz = rng.uniform(0.0, 3e6);
      }
      info.geometry.network = static_cast<std::uint32_t>(info.geometry.clusters.size() - 1);
      serve::encode_stream_info(out, info);
      break;
    }
    case 1: {
      core::DecisionRequest req;
      req.event = core::DecisionEvent::kDecodeComplete;
      req.downloading = rng.bernoulli(0.5);
      req.now_us = static_cast<std::int64_t>(rng.next_u64());
      req.observe_cycles = std::bit_cast<double>(rng.next_u64());
      serve::encode_request(out, req);
      break;
    }
    case 2: {
      core::DecisionResponse resp;
      resp.planned = rng.bernoulli(0.5);
      resp.cluster_count = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      for (auto& khz : resp.target_khz) khz = static_cast<std::uint32_t>(rng.next_u64());
      resp.decode_mape = rng.uniform(0.0, 1.0);
      serve::encode_response(out, resp);
      break;
    }
    default:
      serve::encode_error(out, static_cast<serve::WireError>(rng.uniform_int(0, 11)));
  }
  return out;
}

/// Bytes flipped, the payload cut short, bytes appended, or one byte set
/// to 0 or 1 (so a flag stays a valid flag and a value changes).
void mutate_payload(sim::Rng& rng, std::vector<std::uint8_t>* payload) {
  const auto any_byte = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(payload->size()) - 1));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      for (int f = static_cast<int>(rng.uniform_int(1, 3)); f > 0; --f) {
        (*payload)[any_byte()] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      }
      break;
    case 1: payload->resize(any_byte()); break;
    case 2:
      for (int n = static_cast<int>(rng.uniform_int(1, 4)); n > 0; --n) {
        payload->push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      break;
    default: (*payload)[any_byte()] = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  }
}

/// Runs `payload` through every payload decoder and returns how many accept
/// it: each that does must re-encode its values to `payload` itself.
int decoders_accepting(const std::vector<std::uint8_t>& payload) {
  std::vector<std::vector<std::uint8_t>> encoded;  // one per accepting decoder
  core::DecisionStreamInfo info;
  if (serve::decode_stream_info(payload.data(), payload.size(), info)) {
    serve::encode_stream_info(encoded.emplace_back(), info);
  }
  core::DecisionRequest req;
  if (serve::decode_request(payload.data(), payload.size(), req)) {
    serve::encode_request(encoded.emplace_back(), req);
  }
  core::DecisionResponse resp;
  if (serve::decode_response(payload.data(), payload.size(), resp)) {
    serve::encode_response(encoded.emplace_back(), resp);
  }
  serve::WireError code = serve::WireError::kNone;
  if (serve::decode_error(payload.data(), payload.size(), code)) {
    serve::encode_error(encoded.emplace_back(), code);
  }
  for (const std::vector<std::uint8_t>& again : encoded) EXPECT_EQ(again, payload);
  return static_cast<int>(encoded.size());
}

}  // namespace wire_fuzz

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MalformedFramesNeverCrashOrHangTheServer) {
  using wire_fuzz::RawClient;
  sim::Rng rng(GetParam());

  const std::string socket_path =
      "/tmp/vafs-wf-" + std::to_string(getpid()) + "-" + std::to_string(GetParam()) + ".sock";
  serve::Server server({socket_path, 32, 16, nullptr});
  ASSERT_TRUE(server.start());

  constexpr int kTimeoutMs = 5000;
  RawClient client;
  ASSERT_TRUE(client.connect_to(socket_path));

  for (int iter = 0; iter < 120; ++iter) {
    if (!client.connected()) {
      ASSERT_TRUE(client.connect_to(socket_path));
    }
    std::vector<std::uint8_t> frame = wire_fuzz::valid_frame(rng);

    switch (rng.uniform_int(0, 4)) {
      case 0: {
        // Corrupt 1-4 random bytes, half-close, and wait for the verdict:
        // an error reply, a drop, or (if the frame survived semantically,
        // e.g. a corrupted byte inside an unread field is impossible — the
        // checksum covers everything) a normal reply. Never a hang.
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(frame.size() - 1)));
          frame[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        client.send_bytes(frame);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on a corrupted frame (iter " << iter << ")";
        break;
      }
      case 1: {
        // Truncate mid-frame and disconnect: the committed read on the
        // server must see EOF and drop, never wait forever.
        const auto keep = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(frame.size() - 1)));
        client.send_bytes(frame.data(), keep);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on a truncated frame (iter " << iter << ")";
        break;
      }
      case 2: {
        // Oversized length prefix: must be answered (kOversized) and
        // dropped without the server trying to read the advertised bytes.
        frame[0] = 0xFF;
        frame[1] = 0xFF;
        frame[2] = static_cast<std::uint8_t>(rng.uniform_int(0x01, 0xFF));
        frame[3] = static_cast<std::uint8_t>(rng.uniform_int(0x00, 0x7F));
        client.send_bytes(frame);
        serve::FrameHeader reply;
        std::vector<std::uint8_t> payload;
        bool hung = false;
        const bool got = client.read_frame(&reply, &payload, &hung, kTimeoutMs);
        ASSERT_FALSE(hung) << "server hung on an oversized frame (iter " << iter << ")";
        if (got) {
          EXPECT_EQ(reply.type, serve::MsgType::kError);
          serve::WireError code = serve::WireError::kNone;
          ASSERT_TRUE(serve::decode_error(payload.data(), payload.size(), code));
          EXPECT_EQ(code, serve::WireError::kOversized);
        }
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1);
        break;
      }
      case 3: {
        // Pure garbage of random length.
        std::vector<std::uint8_t> garbage(
            static_cast<std::size_t>(rng.uniform_int(1, 128)));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        client.send_bytes(garbage);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on garbage (iter " << iter << ")";
        break;
      }
      default: {
        // A well-formed frame sent whole, then an abrupt mid-frame
        // disconnect on the next one: both must leave the server alive.
        client.send_bytes(frame);
        serve::FrameHeader reply;
        std::vector<std::uint8_t> payload;
        bool hung = false;
        // kClose has no reply; everything else answers exactly once.
        const bool expect_reply =
            frame[7] != static_cast<std::uint8_t>(serve::MsgType::kClose);
        if (expect_reply) {
          EXPECT_TRUE(client.read_frame(&reply, &payload, &hung, kTimeoutMs));
          ASSERT_FALSE(hung) << "server hung on a valid frame (iter " << iter << ")";
        }
        std::vector<std::uint8_t> half = wire_fuzz::valid_frame(rng);
        client.send_bytes(half.data(), half.size() / 2);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1);
        break;
      }
    }
  }

  // The server survived the campaign: still running, still correct for a
  // well-behaved client.
  EXPECT_TRUE(server.running());
  serve::ServeConnection good(socket_path);
  EXPECT_TRUE(good.ping());
  const std::uint64_t stream = good.open_stream(wire_fuzz::valid_stream_info());
  core::DecisionRequest req;
  req.event = core::DecisionEvent::kReplan;
  req.want_plan = true;
  const core::DecisionResponse resp = good.decide(stream, req);
  EXPECT_TRUE(resp.planned);
  server.stop();
  EXPECT_GT(server.stats().protocol_errors, 0u);
}

// A payload parses exactly or is refused: every payload a decoder accepts,
// mutated or not, re-encodes to its own bytes, so no byte after the last
// field and no flag byte other than 0 or 1 gets through.
TEST_P(WireFuzz, AcceptedPayloadsReencodeToTheirOwnBytes) {
  using namespace wire_fuzz;
  sim::Rng rng(GetParam());
  int accepted = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> payload = random_payload(rng);
    ASSERT_GE(decoders_accepting(payload), 1);
    mutate_payload(rng, &payload);
    accepted += decoders_accepting(payload);
  }
  EXPECT_GT(accepted, 0);  // the leg reaches the accepting path on mutants too
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Range<std::uint64_t>(5000, 5008));  // 8 campaigns

// ----------------------------------------------------- Record-format fuzzing
//
// The line formats of the record codec (fleet/record.h) under mutation: a
// valid checkpoint manifest body and encoded supervisor wire lines get
// lines dropped, duplicated or swapped, fields replaced by random, huge,
// signed, empty or non-hex tokens, and bytes flipped. A mutated manifest is
// resealed, so it reaches the parser, not just the seal. The contract:
// nothing throws, crashes or hangs; every refused manifest carries a
// message; every accepted input re-encodes to its own bytes, so its values
// read back the same.

namespace record_fuzz {

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    lines.emplace_back(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  return lines;
}

std::string hostile_token(sim::Rng& rng) {
  switch (rng.next_u64() % 8) {
    case 0: return std::to_string(rng.next_u64());
    case 1: return "18446744073709551616";  // 2^64
    case 2: return "9223372036854775808";   // 2^63
    case 3: return "-" + std::to_string(rng.next_u64() % 1000);
    case 4: return "";
    case 5: return "0123456789abcdeg";  // 16 digits, one not hex
    case 6: return "-";
    default: {
      std::string hex;  // a well-formed hex field
      for (int i = 0; i < 16; ++i) hex += "0123456789abcdef"[rng.next_u64() % 16];
      return hex;
    }
  }
}

/// One field of `line` replaced or dropped, a field appended, or a bit
/// flipped.
void mutate_line(sim::Rng& rng, std::string* line) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < line->size(); ++i) {
    if ((*line)[i] == ' ') starts.push_back(i + 1);
  }
  const std::size_t at = starts[rng.next_u64() % starts.size()];
  const std::size_t end = std::min(line->find(' ', at), line->size());
  switch (rng.next_u64() % 4) {
    case 0: line->replace(at, end - at, hostile_token(rng)); break;
    case 1: *line += ' ' + hostile_token(rng); break;
    case 2: line->erase(at == 0 ? 0 : at - 1, end - (at == 0 ? 0 : at - 1)); break;
    default:
      if (!line->empty()) {
        (*line)[rng.next_u64() % line->size()] ^= static_cast<char>(1 << (rng.next_u64() % 8));
      }
  }
}

/// One line dropped, duplicated, swapped with another or mutated.
void mutate_body(sim::Rng& rng, std::vector<std::string>* lines) {
  if (lines->empty()) return;
  const std::size_t a = rng.next_u64() % lines->size();
  const std::size_t b = rng.next_u64() % lines->size();
  switch (rng.next_u64() % 4) {
    case 0: lines->erase(lines->begin() + static_cast<std::ptrdiff_t>(a)); break;
    case 1: {
      const std::string copy = (*lines)[b];
      lines->insert(lines->begin() + static_cast<std::ptrdiff_t>(a), copy);
      break;
    }
    case 2: std::swap((*lines)[a], (*lines)[b]); break;
    default: mutate_line(rng, &(*lines)[a]);
  }
}

/// The manifest body write_checkpoint produces for `state`.
std::string manifest_body(const std::string& path, const fleet::CheckpointState& state) {
  std::string error;
  std::string body;
  EXPECT_TRUE(fleet::write_checkpoint(path, state, &error)) << error;
  EXPECT_TRUE(fleet::read_sealed(path, "checkpoint", &body, &error)) << error;
  return body;
}

/// Runs `line` through every wire parser and returns how many accept it:
/// at most one may, and its values must re-encode to `line` itself.
std::size_t wire_parsers_accepting(std::string_view line) {
  std::vector<std::string> encoded;  // one line per accepting parser
  std::uint64_t task = 0;
  int attempt = 0;
  if (supervise::parse_task(line, &task, &attempt)) {
    supervise::encode_task(&encoded.emplace_back(), task, attempt);
  }
  if (supervise::parse_begin(line, &task)) supervise::encode_begin(&encoded.emplace_back(), task);
  supervise::WireResult r;
  if (supervise::parse_result(line, &r)) supervise::encode_result(&encoded.emplace_back(), r);
  supervise::WireFailure f;
  if (supervise::parse_failure(line, &f)) {
    supervise::encode_failure(&encoded.emplace_back(), f.task_index, f.error);
  }
  supervise::WireHeartbeat h;
  if (supervise::parse_heartbeat(line, &h)) {
    supervise::encode_heartbeat(&encoded.emplace_back(), h);
  }
  if (supervise::is_quit(line)) supervise::encode_quit(&encoded.emplace_back());
  EXPECT_LE(encoded.size(), 1u) << line;
  for (const std::string& again : encoded) EXPECT_EQ(again, std::string(line) + '\n');
  return encoded.size();
}

}  // namespace record_fuzz

class RecordFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordFuzz, MutatedManifestsParseExactlyOrAreRefusedWithAMessage) {
  using namespace record_fuzz;
  sim::Rng rng(GetParam());
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("vafs_record_fuzz_" + std::to_string(GetParam()) + ".ckpt"))
                               .string();
  fleet::CheckpointState state;
  state.fingerprint = rng.next_u64();
  state.shards_done = 3;
  state.tasks_done = 24;
  state.digest_chain = rng.next_u64();
  state.spool_offset = rng.next_u64() % (1ull << 40);
  state.quarantine_offset = rng.next_u64() % (1ull << 30);
  state.aggregates.resize(2);
  for (exp::Aggregate& agg : state.aggregates) {
    agg.runs = static_cast<int>(rng.next_u64() % 100);
    agg.all_finished = rng.bernoulli(0.5);
    for (const auto& m : exp::Aggregate::metrics()) {
      sim::OnlineStats::State st;
      st.n = rng.next_u64() % 100;
      st.mean = std::bit_cast<double>(rng.next_u64());
      st.m2 = std::bit_cast<double>(rng.next_u64());
      st.min = std::bit_cast<double>(rng.next_u64());
      st.max = std::bit_cast<double>(rng.next_u64());
      agg.*m.member = sim::OnlineStats::from_state(st);
    }
  }
  state.failures = {{7, 101, "boom: \"quoted\"\nsecond line"}, {9, 202, ""}};
  state.quarantined = {{11, 303, 3, "crash:SIGSEGV,exit:41", "tail\n", 64, rng.next_u64()}};
  const std::vector<std::string> pristine = split_lines(manifest_body(path, state));

  int accepted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::string> lines = pristine;
    const int mutations = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int m = 0; m < mutations; ++m) mutate_body(rng, &lines);
    std::string hostile;
    for (const std::string& line : lines) hostile += line + '\n';
    std::string error;
    ASSERT_TRUE(fleet::write_sealed(path, hostile, "checkpoint", "manifest", &error)) << error;

    fleet::CheckpointState loaded;
    if (!fleet::read_checkpoint(path, &loaded, &error)) {
      EXPECT_NE(error.find("checkpoint '"), std::string::npos) << error;
      continue;
    }
    ++accepted;
    // Each value has one spelling, so the accepted body is exactly the one
    // its values encode to.
    EXPECT_EQ(manifest_body(path, loaded), hostile);
  }
  EXPECT_GT(accepted, 0);  // the leg reaches the accepting path too
  std::filesystem::remove(path);
}

TEST_P(RecordFuzz, MutatedWireLinesParseExactlyOrAreRefused) {
  using namespace record_fuzz;
  sim::Rng rng(GetParam());
  std::string wire;
  supervise::encode_task(&wire, rng.next_u64(), 2);
  supervise::encode_quit(&wire);
  supervise::encode_begin(&wire, rng.next_u64());
  supervise::WireResult result;
  result.task_index = rng.next_u64();
  result.finished = true;
  result.digest = rng.next_u64();
  for (double& v : result.values) v = std::bit_cast<double>(rng.next_u64());
  supervise::encode_result(&wire, result);
  supervise::encode_failure(&wire, rng.next_u64(), std::string("boom\n\0\"", 7));
  supervise::encode_heartbeat(&wire, {rng.next_u64(), rng.next_u64(), rng.next_u64()});
  const std::vector<std::string> pristine = split_lines(wire);

  for (const std::string& line : pristine) EXPECT_EQ(wire_parsers_accepting(line), 1u) << line;
  std::size_t accepted = 0;
  for (int iter = 0; iter < 600; ++iter) {
    std::string line = pristine[rng.next_u64() % pristine.size()];
    const int mutations = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int m = 0; m < mutations; ++m) mutate_line(rng, &line);
    accepted += wire_parsers_accepting(line);
  }
  EXPECT_GT(accepted, 0u);  // the leg reaches the accepting path too
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFuzz,
                         ::testing::Range<std::uint64_t>(6000, 6008));  // 8 campaigns

}  // namespace
}  // namespace vafs
