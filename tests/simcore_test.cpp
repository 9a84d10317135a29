// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "simcore/stats.h"
#include "simcore/time.h"

namespace vafs::sim {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTime, ConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(3).as_micros(), 3'000'000);
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3'000);
  EXPECT_EQ(SimTime::micros(3).as_micros(), 3);
  EXPECT_EQ(SimTime::seconds_f(1.5).as_micros(), 1'500'000);
  EXPECT_EQ(SimTime::zero().as_micros(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::millis(250);
  const SimTime b = SimTime::millis(750);
  EXPECT_EQ((a + b).as_micros(), 1'000'000);
  EXPECT_EQ((b - a).as_millis_f(), 500.0);
  EXPECT_EQ((a * 4).as_seconds_f(), 1.0);
  EXPECT_EQ((b / 3).as_micros(), 250'000);
  EXPECT_TRUE((a - b).is_negative());
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::seconds(1), SimTime::millis(1000));
  EXPECT_GE(SimTime::max(), SimTime::seconds(1'000'000));
}

TEST(SimTime, ScaledRounds) {
  EXPECT_EQ(SimTime::micros(10).scaled(0.55).as_micros(), 6);  // 5.5 -> 6
  EXPECT_EQ(SimTime::micros(100).scaled(1.5).as_micros(), 150);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2s");
  EXPECT_EQ(SimTime::millis(250).to_string(), "250ms");
  EXPECT_EQ(SimTime::micros(12).to_string(), "12us");
}

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime::millis(30), [&] { fired.push_back(3); });
  q.schedule(SimTime::millis(10), [&] { fired.push_back(1); });
  q.schedule(SimTime::millis(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsKeepInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.schedule(SimTime::millis(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(SimTime::millis(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnEmptyHandles) {
  EventHandle empty;
  empty.cancel();
  empty.cancel();
  EXPECT_FALSE(empty.pending());

  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  h.cancel();
  h.cancel();  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandleNotPendingAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(9), [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), SimTime::millis(9));
}

TEST(EventQueue, PopNextRespectsDeadlineAndSettlesStaleHead) {
  EventQueue q;
  EventQueue::Popped out;
  EXPECT_FALSE(q.pop_next(SimTime::max(), &out));  // empty queue

  int fired = 0;
  q.schedule(SimTime::millis(10), [&] { ++fired; });
  EventHandle h = q.schedule(SimTime::millis(5), [&] { fired += 100; });
  h.cancel();  // the heap head is now stale; pop_next must skip past it

  EXPECT_FALSE(q.pop_next(SimTime::millis(9), &out));  // next live is at 10
  ASSERT_TRUE(q.pop_next(SimTime::millis(10), &out));
  EXPECT_EQ(out.time, SimTime::millis(10));
  out.fn();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.pop_next(SimTime::max(), &out));
}

TEST(EventQueue, StaleHandleDoesNotAliasReusedSlot) {
  EventQueue q;
  int first = 0;
  int second = 0;
  EventHandle old = q.schedule(SimTime::millis(1), [&] { ++first; });
  q.pop().fn();  // frees old's slot (and bumps its generation)
  EXPECT_EQ(first, 1);

  // The freed slot is reused for the next event; the stale handle now
  // points at the same slot with an older generation.
  EventHandle fresh = q.schedule(SimTime::millis(2), [&] { ++second; });
  ASSERT_EQ(q.slab_size(), 1u);  // same slot, or the test proves nothing

  EXPECT_FALSE(old.pending());
  old.cancel();  // generation mismatch: must not touch the new event
  EXPECT_TRUE(fresh.pending());
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_EQ(second, 1);
}

TEST(EventQueue, ChurnMatchesReferenceModelAcrossGenerations) {
  // Randomized schedule/cancel/reschedule churn, cross-checked against a
  // map ordered by (time, arming order) — the queue's documented order.
  // Three full drain cycles recycle every slot repeatedly, exercising
  // generation bumps, handle invalidation, lazy deletion and compaction.
  EventQueue q;
  Rng rng(2024);
  int next_id = 0;
  std::uint64_t order = 0;  // monotone arming counter, bumped like seq

  for (int cycle = 0; cycle < 3; ++cycle) {
    struct Live {
      EventHandle handle;
      std::pair<std::int64_t, std::uint64_t> key;
      int id;
    };
    std::vector<Live> live;
    std::map<std::pair<std::int64_t, std::uint64_t>, int> expected;
    std::vector<int> fired;

    auto arm = [&](std::int64_t ms) {
      const int id = next_id++;
      EventHandle h = q.schedule(SimTime::millis(ms), [&fired, id] { fired.push_back(id); });
      live.push_back({h, {ms, order}, id});
      expected.emplace(std::make_pair(ms, order), id);
      ++order;
    };

    for (int op = 0; op < 600; ++op) {
      // Few distinct times on purpose: ties are the interesting case.
      const std::int64_t ms = rng.uniform_int(1, 40);
      const double dice = rng.uniform();
      if (live.empty() || dice < 0.5) {
        arm(ms);
      } else {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        if (dice < 0.75) {  // cancel
          live[pick].handle.cancel();
          expected.erase(live[pick].key);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {  // reschedule: keeps the callback, re-sequences the event
          ASSERT_TRUE(q.reschedule(live[pick].handle, SimTime::millis(ms)));
          expected.erase(live[pick].key);
          live[pick].key = {ms, order};
          expected.emplace(std::make_pair(ms, order), live[pick].id);
          ++order;
        }
      }
    }
    EXPECT_LE(q.stale_entries(), q.raw_size());

    // Drain through the run-loop path and compare the full firing order.
    EventQueue::Popped out;
    while (q.pop_next(SimTime::max(), &out)) out.fn();
    std::vector<int> want;
    want.reserve(expected.size());
    for (const auto& [key, id] : expected) want.push_back(id);
    EXPECT_EQ(fired, want);
    EXPECT_TRUE(q.empty());

    for (const Live& l : live) EXPECT_FALSE(l.handle.pending());
  }
}

// ------------------------------------------------------------- Simulator

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<std::int64_t> at;
  s.at(SimTime::millis(5), [&] { at.push_back(s.now().as_micros()); });
  s.after(SimTime::millis(2), [&] { at.push_back(s.now().as_micros()); });
  s.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(s.now(), SimTime::millis(5));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.run_until(SimTime::seconds(3));
  EXPECT_EQ(s.now(), SimTime::seconds(3));
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator s;
  bool late = false;
  s.at(SimTime::seconds(10), [&] { late = true; });
  s.run_until(SimTime::seconds(5));
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), SimTime::seconds(5));
  s.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.after(SimTime::millis(1), chain);
  };
  s.after(SimTime::millis(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime::millis(5));
}

TEST(Simulator, PeriodicFiresAtFixedIntervals) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.every(SimTime::millis(10), [&] { times.push_back(s.now().as_micros()); });
  s.run_until(SimTime::millis(35));
  EXPECT_EQ(times, (std::vector<std::int64_t>{10'000, 20'000, 30'000}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator s;
  int count = 0;
  EventHandle h = s.every(SimTime::millis(10), [&] { ++count; });
  s.run_until(SimTime::millis(25));
  h.cancel();
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicCanCancelItselfFromCallback) {
  Simulator s;
  int count = 0;
  EventHandle h;
  h = s.every(SimTime::millis(10), [&] {
    if (++count == 3) h.cancel();
  });
  s.run_until(SimTime::seconds(1));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int count = 0;
  s.after(SimTime::millis(1), [&] { ++count; });
  s.after(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.at(SimTime::millis(i), [&] { ++count; });
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.events_executed(), 4u);
}

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng parent1(77), parent2(77);
  Rng childa = parent1.fork(0);
  Rng childb = parent2.fork(0);
  EXPECT_EQ(childa.next_u64(), childb.next_u64());  // same lineage => same stream

  Rng parent3(77);
  Rng other = parent3.fork(1);
  EXPECT_NE(childa.next_u64(), other.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 7.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(12);
  OnlineStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.2);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, LognormalIsPositiveWithExpectedMedian) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  std::sort(samples.begin(), samples.end());
  EXPECT_GT(samples.front(), 0.0);
  EXPECT_NEAR(samples[samples.size() / 2], std::exp(1.0), 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------- Stats

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZeroes) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Rng rng(20);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

}  // namespace
}  // namespace vafs::sim
