// Unit tests for the network substrate: bandwidth processes, the LTE RRC
// radio state machine (tail timers, promotion cost), and the downloader's
// byte-arrival / CPU-charging behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cpu/cpu_model.h"
#include "net/bandwidth.h"
#include "net/downloader.h"
#include "net/radio.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace vafs::net {
namespace {

// ------------------------------------------------------------- bandwidth

TEST(ConstantBandwidth, NeverChanges) {
  ConstantBandwidth bw(10.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::zero()), 10.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(100)), 10.0);
  EXPECT_EQ(bw.next_change(sim::SimTime::seconds(5)), sim::SimTime::max());
}

TEST(MarkovBandwidth, StaysWithinBounds) {
  MarkovBandwidth::Params params;
  params.mean_mbps = 10;
  params.min_mbps = 2;
  params.max_mbps = 30;
  MarkovBandwidth bw(params, sim::Rng(5));
  for (int s = 0; s < 600; ++s) {
    const double mbps = bw.current_mbps(sim::SimTime::seconds(s));
    EXPECT_GE(mbps, 2.0);
    EXPECT_LE(mbps, 30.0);
  }
}

TEST(MarkovBandwidth, MeanRevertsRoughly) {
  MarkovBandwidth::Params params;
  params.mean_mbps = 10;
  params.min_mbps = 1;
  params.max_mbps = 100;
  MarkovBandwidth bw(params, sim::Rng(6));
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum += bw.current_mbps(sim::SimTime::millis(200) * i);
  }
  const double mean = sum / n;
  EXPECT_GT(mean, 5.0);
  EXPECT_LT(mean, 20.0);
}

TEST(MarkovBandwidth, NextChangeIsInTheFuture) {
  MarkovBandwidth bw({}, sim::Rng(7));
  sim::SimTime t = sim::SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    const sim::SimTime change = bw.next_change(t);
    EXPECT_GT(change, t);
    t = change;
  }
}

TEST(MarkovBandwidth, DeterministicForSameSeed) {
  MarkovBandwidth a({}, sim::Rng(8));
  MarkovBandwidth b({}, sim::Rng(8));
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(a.current_mbps(sim::SimTime::seconds(s)), b.current_mbps(sim::SimTime::seconds(s)));
  }
}

TEST(TraceBandwidth, StepFunctionReplay) {
  TraceBandwidth bw({{sim::SimTime::zero(), 5.0},
                     {sim::SimTime::seconds(10), 1.0},
                     {sim::SimTime::seconds(20), 8.0}},
                    /*loop=*/false);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(3)), 5.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(10)), 1.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(15)), 1.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(25)), 8.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(500)), 8.0);  // holds last
  EXPECT_EQ(bw.next_change(sim::SimTime::seconds(3)), sim::SimTime::seconds(10));
  EXPECT_EQ(bw.next_change(sim::SimTime::seconds(25)), sim::SimTime::max());
}

TEST(TraceBandwidth, LoopingWrapsAround) {
  TraceBandwidth bw({{sim::SimTime::zero(), 5.0}, {sim::SimTime::seconds(10), 1.0}},
                    /*loop=*/true);
  // Loop period = 20 s (last step extended by the previous step length).
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(3)), 5.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(23)), 5.0);
  EXPECT_EQ(bw.current_mbps(sim::SimTime::seconds(33)), 1.0);
}

/// current_mbps and next_change at `now`, recomputed by scanning every
/// step: the reference TraceBandwidth's binary search must match.
std::pair<double, sim::SimTime> scan_trace(const std::vector<TraceBandwidth::Step>& steps,
                                           bool loop, sim::SimTime now) {
  const sim::SimTime last = steps.back().at;
  if (!loop && now >= last) return {steps.back().mbps, sim::SimTime::max()};
  // Loop period: one more step-length past the last change point.
  const sim::SimTime period = last + (last - steps[steps.size() - 2].at);
  const sim::SimTime t = loop ? sim::SimTime(now.as_micros() % period.as_micros()) : now;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].at <= t) idx = i;
  }
  const sim::SimTime end = idx + 1 < steps.size() ? steps[idx + 1].at : period;
  sim::SimTime remaining = end - t;
  if (remaining <= sim::SimTime::zero()) remaining = sim::SimTime::micros(1);
  return {steps[idx].mbps, now + remaining};
}

TEST(TraceBandwidth, MatchesALinearScanAtEveryStepEdge) {
  // Irregular gaps from 1 µs to 3 s, so the ±1 µs probes also land on
  // neighbouring steps.
  sim::Rng rng(31);
  std::vector<TraceBandwidth::Step> steps = {{sim::SimTime::zero(), 4.0}};
  for (int i = 1; i < 64; ++i) {
    const std::int64_t gap = i % 9 == 0 ? 1 : rng.uniform_int(1, 3'000'000);
    steps.push_back({steps.back().at + sim::SimTime::micros(gap), rng.uniform(0.1, 40.0)});
  }
  const sim::SimTime last = steps.back().at;
  const sim::SimTime period = last + (last - steps[steps.size() - 2].at);
  for (const bool loop : {false, true}) {
    SCOPED_TRACE(loop ? "looping" : "not looping");
    TraceBandwidth bw(steps, loop);
    for (std::int64_t lap = 0; lap < 3; ++lap) {
      for (const auto& step : steps) {
        for (const std::int64_t delta : {-1, 0, 1}) {
          const std::int64_t us = lap * period.as_micros() + step.at.as_micros() + delta;
          if (us < 0) continue;
          const sim::SimTime now = sim::SimTime::micros(us);
          const auto [mbps, next] = scan_trace(steps, loop, now);
          EXPECT_EQ(bw.current_mbps(now), mbps) << "t=" << us;
          EXPECT_EQ(bw.next_change(now), next) << "t=" << us;
        }
      }
    }
  }
}

TEST(TraceBandwidth, LongTraceReplaysStepByStep) {
  // 200,000 steps of 1 ms, walked change by change through two loop
  // periods. Each call must not scan the whole trace: at O(steps) per call
  // this replay takes minutes, and ctest's TIMEOUT on this binary fails it.
  constexpr std::int64_t kSteps = 200'000;
  std::vector<TraceBandwidth::Step> steps;
  steps.reserve(kSteps);
  for (std::int64_t i = 0; i < kSteps; ++i) {
    steps.push_back({sim::SimTime::millis(i), 1.0 + static_cast<double>(i % 7)});
  }
  TraceBandwidth bw(steps, /*loop=*/true);
  const sim::SimTime end = sim::SimTime::millis(2 * kSteps);  // two loop periods
  sim::SimTime t = sim::SimTime::zero();
  std::int64_t changes = 0;
  std::int64_t mismatches = 0;
  while (t < end) {
    if (bw.current_mbps(t) != steps[static_cast<std::size_t>(changes % kSteps)].mbps) {
      ++mismatches;
    }
    t = bw.next_change(t);
    ++changes;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(changes, 2 * kSteps);
  EXPECT_EQ(t, end);
}

// ------------------------------------------------------------------ radio

class RadioTest : public ::testing::Test {
 protected:
  RadioTest() : radio_(sim_, RadioParams::lte()) {}
  sim::Simulator sim_;
  RadioModel radio_;
};

TEST_F(RadioTest, StartsIdle) {
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
  EXPECT_EQ(radio_.promotion_count(), 0u);
}

TEST_F(RadioTest, PromotionTakesConfiguredDelay) {
  sim::SimTime ready_at;
  radio_.acquire([&] { ready_at = sim_.now(); });
  EXPECT_EQ(radio_.state(), RadioState::kPromotion);
  sim_.run();
  EXPECT_EQ(ready_at, sim::SimTime::millis(260));
  EXPECT_EQ(radio_.state(), RadioState::kActive);
  EXPECT_EQ(radio_.promotion_count(), 1u);
}

TEST_F(RadioTest, ReleaseWalksTheTail) {
  radio_.acquire(nullptr);
  sim_.run();
  radio_.release();
  EXPECT_EQ(radio_.state(), RadioState::kTailCr);
  sim_.run_until(sim_.now() + sim::SimTime::millis(250));
  EXPECT_EQ(radio_.state(), RadioState::kTailDrx);
  sim_.run_until(sim_.now() + sim::SimTime::seconds(10));
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
}

TEST_F(RadioTest, AcquireDuringTailSkipsPromotion) {
  radio_.acquire(nullptr);
  sim_.run();
  radio_.release();
  sim_.run_until(sim_.now() + sim::SimTime::seconds(2));  // deep in DRX tail
  ASSERT_EQ(radio_.state(), RadioState::kTailDrx);

  bool ready = false;
  radio_.acquire([&] { ready = true; });
  EXPECT_TRUE(ready);  // immediate: still connected
  EXPECT_EQ(radio_.state(), RadioState::kActive);
  EXPECT_EQ(radio_.promotion_count(), 1u);  // no second promotion

  // And the stale tail timer must not demote us while held.
  sim_.run_until(sim_.now() + sim::SimTime::seconds(30));
  EXPECT_EQ(radio_.state(), RadioState::kActive);
}

TEST_F(RadioTest, RefcountedConcurrentTransfers) {
  radio_.acquire(nullptr);
  sim_.run();
  radio_.acquire(nullptr);  // second transfer joins
  EXPECT_EQ(radio_.active_transfers(), 2u);
  radio_.release();
  EXPECT_EQ(radio_.state(), RadioState::kActive);  // one still holds
  radio_.release();
  EXPECT_EQ(radio_.state(), RadioState::kTailCr);
}

TEST_F(RadioTest, AcquireDuringPromotionJoins) {
  int ready = 0;
  radio_.acquire([&] { ++ready; });
  sim_.run_until(sim::SimTime::millis(100));
  radio_.acquire([&] { ++ready; });
  EXPECT_EQ(ready, 0);
  sim_.run();
  EXPECT_EQ(ready, 2);
  EXPECT_EQ(radio_.promotion_count(), 1u);
}

TEST_F(RadioTest, ReleaseWithinPromotionWindowStillTails) {
  radio_.acquire(nullptr);
  radio_.release();  // before promotion completes
  sim_.run();
  // The promotion completes, finds nobody holding, and starts the tail;
  // eventually the radio must return to IDLE rather than hang ACTIVE.
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
}

TEST_F(RadioTest, EnergyIntegratesStatePowers) {
  const RadioParams p = RadioParams::lte();
  radio_.acquire(nullptr);
  sim_.run();  // 260 ms promotion
  sim_.run_until(sim_.now() + sim::SimTime::seconds(1));  // 1 s active
  radio_.release();
  sim_.run_until(sim_.now() + sim::SimTime::millis(100));  // 100 ms tail-CR
  const double expected = 0.26 * p.promotion_mw + 1.0 * p.active_mw + 0.1 * p.tail_cr_mw;
  EXPECT_NEAR(radio_.energy_mj(), expected, 1e-6);
}

TEST_F(RadioTest, ResidencyAccounting) {
  radio_.acquire(nullptr);
  sim_.run();
  radio_.release();
  sim_.run_until(sim::SimTime::seconds(30));
  EXPECT_EQ(radio_.time_in(RadioState::kPromotion), sim::SimTime::millis(260));
  EXPECT_EQ(radio_.time_in(RadioState::kTailCr), sim::SimTime::millis(200));
  EXPECT_EQ(radio_.time_in(RadioState::kTailDrx), sim::SimTime::seconds_f(9.8));
  EXPECT_GT(radio_.time_in(RadioState::kIdle), sim::SimTime::seconds(19));
}

TEST_F(RadioTest, ReacquireDuringTailCrNeverEntersDrx) {
  // A fetch that lands inside the continuous-reception tail resumes from
  // TAIL_CR: the DRX stage must never be entered, and the CR dwell is
  // exactly the time spent waiting, not the full t_cr.
  radio_.acquire(nullptr);
  sim_.run();
  radio_.release();
  sim_.run_until(sim_.now() + sim::SimTime::millis(120));  // inside t_cr = 200 ms
  ASSERT_EQ(radio_.state(), RadioState::kTailCr);
  radio_.acquire(nullptr);
  EXPECT_EQ(radio_.state(), RadioState::kActive);
  sim_.run_until(sim_.now() + sim::SimTime::seconds(30));
  EXPECT_EQ(radio_.time_in(RadioState::kTailCr), sim::SimTime::millis(120));
  EXPECT_EQ(radio_.time_in(RadioState::kTailDrx), sim::SimTime::zero());
  EXPECT_EQ(radio_.state(), RadioState::kActive);  // still held
}

TEST_F(RadioTest, ReacquireDuringDrxCutsTheDwellShort) {
  radio_.acquire(nullptr);
  sim_.run();
  radio_.release();
  sim_.run_until(sim_.now() + sim::SimTime::millis(200) + sim::SimTime::seconds(3));
  ASSERT_EQ(radio_.state(), RadioState::kTailDrx);
  radio_.acquire(nullptr);
  radio_.release();
  sim_.run();  // walk the restarted tail back to idle
  ASSERT_EQ(radio_.state(), RadioState::kIdle);
  // The interrupted DRX dwell (3 s) plus one full restarted dwell.
  EXPECT_EQ(radio_.time_in(RadioState::kTailDrx),
            sim::SimTime::seconds(3) + sim::SimTime::seconds_f(9.8));
  // The tail restarts from the top: two full CR dwells.
  EXPECT_EQ(radio_.time_in(RadioState::kTailCr), sim::SimTime::millis(200) * 2);
  EXPECT_EQ(radio_.promotion_count(), 1u);  // never went through IDLE
}

TEST(RadioDwellTimes, FullCycleMatchesEveryProfileExactly) {
  // One acquire/hold/release cycle per profile: each state's dwell must
  // equal that profile's timer, exactly — these dwells are what make
  // radio energy depend on fetch *timing*, so they are load-bearing for
  // every energy number in the evaluation.
  const std::pair<const char*, RadioParams> profiles[] = {
      {"lte", RadioParams::lte()},
      {"wifi", RadioParams::wifi()},
      {"umts", RadioParams::umts_3g()},
  };
  for (const auto& [name, params] : profiles) {
    SCOPED_TRACE(name);
    sim::Simulator sim;
    RadioModel radio(sim, params);
    radio.acquire(nullptr);
    sim.run();  // promotion completes
    const sim::SimTime hold = sim::SimTime::seconds(1);
    sim.run_until(sim.now() + hold);
    radio.release();
    sim.run();  // tail walks to idle
    ASSERT_EQ(radio.state(), RadioState::kIdle);
    EXPECT_EQ(radio.time_in(RadioState::kPromotion), params.promotion_delay);
    EXPECT_EQ(radio.time_in(RadioState::kActive), hold);
    EXPECT_EQ(radio.time_in(RadioState::kTailCr), params.tail_cr);
    EXPECT_EQ(radio.time_in(RadioState::kTailDrx), params.tail_drx);
    // And the residency-weighted energy follows from exactly those dwells.
    const double expected_mj = params.promotion_delay.as_seconds_f() * params.promotion_mw +
                               hold.as_seconds_f() * params.active_mw +
                               params.tail_cr.as_seconds_f() * params.tail_cr_mw +
                               params.tail_drx.as_seconds_f() * params.tail_drx_mw;
    EXPECT_NEAR(radio.energy_mj(), expected_mj, 1e-6);
  }
}

TEST(RadioParamsTest, WifiProfileIsCheaper) {
  const RadioParams lte = RadioParams::lte();
  const RadioParams wifi = RadioParams::wifi();
  EXPECT_LT(wifi.active_mw, lte.active_mw);
  EXPECT_LT(wifi.promotion_delay, lte.promotion_delay);
  EXPECT_LT(wifi.tail_drx, lte.tail_drx);
}

// -------------------------------------------------------------- downloader

class DownloaderTest : public ::testing::Test {
 protected:
  DownloaderTest()
      : radio_(sim_, RadioParams::lte()),
        bw_(8.0),  // 8 Mbps = 1 MB/s
        cpu_(sim_, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel()) {}

  sim::Simulator sim_;
  RadioModel radio_;
  ConstantBandwidth bw_;
  cpu::CpuModel cpu_;
};

TEST_F(DownloaderTest, FetchTimingWithoutCpu) {
  Downloader dl(sim_, radio_, bw_, nullptr);
  FetchResult result;
  bool done = false;
  dl.fetch(1'000'000, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  sim_.run();
  ASSERT_TRUE(done);
  // 260 ms promotion + 70 ms RTT + 1 MB at 1 MB/s = 1 s.
  EXPECT_EQ(result.first_byte, sim::SimTime::millis(330));
  EXPECT_EQ(result.completed, sim::SimTime::millis(1330));
  EXPECT_NEAR(result.throughput_mbps(), 8.0, 0.01);
  // run() drained the tail timers too: the radio must be back in IDLE.
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
}

TEST_F(DownloaderTest, CpuCyclesChargedForPayload) {
  cpu_.set_frequency(2'100'000);  // plenty of headroom
  Downloader dl(sim_, radio_, bw_, &cpu_);
  bool done = false;
  dl.fetch(1'000'000, [&](const FetchResult&) { done = true; });
  sim_.run();
  ASSERT_TRUE(done);
  // 8 cycles/B * 1 MB + 2e6 request cycles ~ 1e7 cycles.
  const double busy_s = cpu_.total_busy_time().as_seconds_f();
  const double cycles = busy_s * 2.1e9;
  EXPECT_NEAR(cycles, 8e6 + 2e6, 1e6);
}

TEST_F(DownloaderTest, CompletionGatedOnFinalCpuChunk) {
  // At min frequency the protocol processing of the last chunk takes
  // non-zero time: completion must come strictly after the last byte.
  Downloader dl(sim_, radio_, bw_, &cpu_);
  FetchResult result;
  dl.fetch(1'000'000, [&](const FetchResult& r) { result = r; });
  sim_.run();
  EXPECT_GT(result.completed, sim::SimTime::millis(1330));
}

TEST_F(DownloaderTest, ConcurrentFetchesShareBandwidth) {
  Downloader dl(sim_, radio_, bw_, nullptr);
  sim::SimTime done_a, done_b;
  dl.fetch(500'000, [&](const FetchResult& r) { done_a = r.completed; });
  dl.fetch(500'000, [&](const FetchResult& r) { done_b = r.completed; });
  sim_.run();
  // Both receive 0.5 MB/s: each takes 1 s of transfer after first byte.
  EXPECT_EQ(done_a, sim::SimTime::millis(1330));
  EXPECT_EQ(done_b, sim::SimTime::millis(1330));
}

TEST_F(DownloaderTest, SequentialFetchReusesConnection) {
  Downloader dl(sim_, radio_, bw_, nullptr);
  sim::SimTime first_done;
  sim::SimTime second_first_byte;
  dl.fetch(1'000'000, [&](const FetchResult& r) {
    first_done = r.completed;
    dl.fetch(1'000'000, [&](const FetchResult& r2) { second_first_byte = r2.first_byte; });
  });
  sim_.run();
  // Second fetch: no promotion (radio in tail), just the RTT.
  EXPECT_EQ(second_first_byte - first_done, sim::SimTime::millis(70));
  EXPECT_EQ(radio_.promotion_count(), 1u);
}

TEST_F(DownloaderTest, ZeroByteFetchCompletes) {
  Downloader dl(sim_, radio_, bw_, nullptr);
  bool done = false;
  dl.fetch(0, [&](const FetchResult& r) {
    done = true;
    EXPECT_EQ(r.bytes, 0u);
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(radio_.active_transfers(), 0u);
}

TEST_F(DownloaderTest, VariableBandwidthExactArithmetic) {
  // 8 Mbps for 1 s after first byte, then 4 Mbps: 1.5 MB total =
  // 1 MB in the first second + 0.5 MB at 0.5 MB/s = 1 more second.
  TraceBandwidth trace({{sim::SimTime::zero(), 8.0}, {sim::SimTime::millis(1330), 4.0}},
                       /*loop=*/false);
  Downloader dl(sim_, radio_, trace, nullptr);
  FetchResult result;
  dl.fetch(1'500'000, [&](const FetchResult& r) { result = r; });
  sim_.run();
  EXPECT_EQ(result.completed, sim::SimTime::millis(2330));
}

TEST_F(DownloaderTest, TotalBytesAccumulate) {
  Downloader dl(sim_, radio_, bw_, nullptr);
  dl.fetch(100, nullptr);
  dl.fetch(200, nullptr);
  sim_.run();
  EXPECT_EQ(dl.total_bytes_fetched(), 300u);
  EXPECT_EQ(dl.inflight(), 0u);
}


// ------------------------------------------------- downloader fault model

/// Deterministic fate script: attempt n gets fates[n] (kOk past the end).
class ScriptedFaultHook final : public FetchFaultHook {
 public:
  ScriptedFaultHook(std::vector<FetchFate> fates,
                    sim::SimTime fail_delay = sim::SimTime::millis(100))
      : fates_(std::move(fates)), fail_delay_(fail_delay) {}

  FetchFate fetch_attempt_fate(sim::SimTime, std::uint64_t, unsigned,
                               sim::SimTime* fail_delay) override {
    const FetchFate fate = next_ < fates_.size() ? fates_[next_++] : FetchFate::kOk;
    if (fate == FetchFate::kFail && fail_delay != nullptr) *fail_delay = fail_delay_;
    return fate;
  }

  std::size_t attempts_seen() const { return next_; }

 private:
  std::vector<FetchFate> fates_;
  sim::SimTime fail_delay_;
  std::size_t next_ = 0;
};

TEST_F(DownloaderTest, InjectedFailureRetriesAndSucceeds) {
  ScriptedFaultHook hook({FetchFate::kFail, FetchFate::kOk});
  DownloaderParams params;
  params.backoff_base = sim::SimTime::millis(200);
  params.backoff_jitter = 0.0;  // deterministic timing for the assertions
  Downloader dl(sim_, radio_, bw_, nullptr, params, &hook);
  FetchResult result;
  dl.fetch(1'000'000, [&](const FetchResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(dl.total_retries(), 1u);
  EXPECT_EQ(dl.failed_fetches(), 0u);
  // Attempt 1: promotion 260 + RTT 70 = 330 ms, injected failure fires
  // 100 ms later (430 ms), backoff 200 ms -> attempt 2 at 630 ms. The
  // radio is still in its tail, so only the RTT precedes the first byte.
  EXPECT_EQ(result.first_byte, sim::SimTime::millis(700));
  EXPECT_EQ(result.completed, sim::SimTime::millis(1700));
  EXPECT_EQ(radio_.state(), RadioState::kIdle);  // every hold released
}

TEST_F(DownloaderTest, ExhaustedAttemptsCompleteWithError) {
  ScriptedFaultHook hook({FetchFate::kFail, FetchFate::kFail, FetchFate::kFail});
  DownloaderParams params;
  params.max_attempts = 3;
  params.backoff_jitter = 0.0;
  Downloader dl(sim_, radio_, bw_, nullptr, params, &hook);
  FetchResult result;
  bool done = false;
  dl.fetch(1'000'000, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  sim_.run();
  ASSERT_TRUE(done);  // the fetch completes (with an error) instead of wedging
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, FetchError::kInjected);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(dl.total_retries(), 2u);
  EXPECT_EQ(dl.failed_fetches(), 1u);
  EXPECT_EQ(dl.inflight(), 0u);
  EXPECT_EQ(radio_.active_transfers(), 0u);
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
}

TEST_F(DownloaderTest, TimeoutRescuesHungAttempt) {
  ScriptedFaultHook hook({FetchFate::kHang, FetchFate::kOk});
  DownloaderParams params;
  params.attempt_timeout = sim::SimTime::millis(500);
  params.backoff_base = sim::SimTime::millis(200);
  params.backoff_jitter = 0.0;
  Downloader dl(sim_, radio_, bw_, nullptr, params, &hook);
  FetchResult result;
  // 250 KB = 250 ms at 8 Mbps: a healthy attempt fits inside the 500 ms
  // watchdog with room to spare.
  dl.fetch(250'000, [&](const FetchResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(dl.total_timeouts(), 1u);
  EXPECT_EQ(dl.total_retries(), 1u);
  // Hang: nothing arrives until the 500 ms watchdog, then 200 ms backoff;
  // retry at 700 ms sees the radio mid-tail (RTT only).
  EXPECT_EQ(result.first_byte, sim::SimTime::millis(770));
  EXPECT_EQ(result.completed, sim::SimTime::millis(1020));
  EXPECT_EQ(radio_.state(), RadioState::kIdle);
}

TEST_F(DownloaderTest, BackoffGrowsExponentially) {
  ScriptedFaultHook hook({FetchFate::kFail, FetchFate::kFail, FetchFate::kOk},
                         sim::SimTime::zero());
  DownloaderParams params;
  params.max_attempts = 3;
  params.backoff_base = sim::SimTime::millis(100);
  params.backoff_factor = 2.0;
  params.backoff_jitter = 0.0;
  Downloader dl(sim_, radio_, bw_, nullptr, params, &hook);
  FetchResult result;
  dl.fetch(1'000'000, [&](const FetchResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3u);
  // Fail at 330 ms (zero fail delay), +100 ms backoff -> attempt 2 begins
  // receive at 500 ms and fails, +200 ms backoff -> attempt 3 first byte
  // at 770 ms.
  EXPECT_EQ(result.first_byte, sim::SimTime::millis(770));
}

TEST_F(DownloaderTest, BackoffJitterStaysWithinBounds) {
  DownloaderParams params;
  params.backoff_base = sim::SimTime::millis(200);
  params.backoff_factor = 1.0;
  params.backoff_jitter = 0.25;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    sim::Simulator sim;
    RadioModel radio(sim, RadioParams::lte());
    ConstantBandwidth bw(8.0);
    ScriptedFaultHook hook({FetchFate::kFail}, sim::SimTime::zero());
    Downloader dl(sim, radio, bw, nullptr, params, &hook, seed);
    FetchResult result;
    dl.fetch(100'000, [&](const FetchResult& r) { result = r; });
    sim.run();
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.attempts, 2u);
    // first_byte = 330 ms fail point + backoff + RTT; backoff within
    // [150, 250] ms of the 200 ms base.
    const auto backoff = result.first_byte - sim::SimTime::millis(400);
    EXPECT_GE(backoff, sim::SimTime::millis(150));
    EXPECT_LE(backoff, sim::SimTime::millis(250));
  }
}

TEST_F(DownloaderTest, BackoffJitterIsKeyedPerFetchAttempt) {
  // Regression for the fleet RNG-keying contract: a retry's backoff jitter
  // is a pure function of (retry seed, fetch id, attempt). With the old
  // sequential jitter stream, fetch 1's retry consumed a draw and shifted
  // fetch 2's backoff; the two timelines below must now agree exactly.
  DownloaderParams params;
  params.backoff_base = sim::SimTime::millis(200);
  params.backoff_jitter = 0.25;
  const auto fetch2_duration = [&](std::vector<FetchFate> fates) {
    sim::Simulator sim;
    RadioModel radio(sim, RadioParams::lte());
    ConstantBandwidth bw(8.0);
    ScriptedFaultHook hook(std::move(fates), sim::SimTime::millis(100));
    Downloader dl(sim, radio, bw, nullptr, params, &hook, /*retry_seed=*/77);
    FetchResult second;
    dl.fetch(500'000, [&](const FetchResult&) {
      dl.fetch(500'000, [&](const FetchResult& r) { second = r; });
    });
    sim.run();
    EXPECT_TRUE(second.ok);
    EXPECT_EQ(second.attempts, 2u);
    return second.completed - second.started;
  };
  // Run A: fetch 1 clean; fetch 2 fails once then succeeds.
  const sim::SimTime a = fetch2_duration({FetchFate::kOk, FetchFate::kFail, FetchFate::kOk});
  // Run B: fetch 1 retries once first; fetch 2's script is unchanged.
  const sim::SimTime b =
      fetch2_duration({FetchFate::kFail, FetchFate::kOk, FetchFate::kFail, FetchFate::kOk});
  EXPECT_EQ(a, b);
}

TEST_F(DownloaderTest, ConcurrentFetchSurvivesPeerRetry) {
  // One fetch fails and retries while another is mid-flight: the survivor
  // must finish with exact byte accounting despite the pump sharing.
  ScriptedFaultHook hook({FetchFate::kOk, FetchFate::kFail, FetchFate::kOk});
  DownloaderParams params;
  params.backoff_jitter = 0.0;
  Downloader dl(sim_, radio_, bw_, nullptr, params, &hook);
  FetchResult a, b;
  dl.fetch(500'000, [&](const FetchResult& r) { a = r; });
  dl.fetch(500'000, [&](const FetchResult& r) { b = r; });
  sim_.run();
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.attempts, 1u);
  EXPECT_EQ(b.attempts, 2u);
  EXPECT_EQ(dl.total_bytes_fetched(), 1'000'000u);
  EXPECT_EQ(dl.inflight(), 0u);
  EXPECT_EQ(radio_.active_transfers(), 0u);
}

TEST_F(DownloaderTest, DisabledTimeoutArmsNoTimer) {
  // Default params: no fault hook, timeout disabled. The event count of a
  // fetch must match the pre-retry downloader exactly (no watchdog timer
  // in the schedule).
  Downloader dl(sim_, radio_, bw_, nullptr);
  bool done = false;
  dl.fetch(1'000'000, [&](const FetchResult& r) {
    done = true;
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.error, FetchError::kNone);
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(dl.total_retries(), 0u);
  EXPECT_EQ(dl.total_timeouts(), 0u);
}

TEST(FetchErrorNames, Stable) {
  EXPECT_STREQ(fetch_error_name(FetchError::kNone), "none");
  EXPECT_STREQ(fetch_error_name(FetchError::kTimeout), "timeout");
  EXPECT_STREQ(fetch_error_name(FetchError::kInjected), "injected");
}

}  // namespace
}  // namespace vafs::net
