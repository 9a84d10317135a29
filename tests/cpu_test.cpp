// Unit tests for the CPU substrate: OPP tables, the power model, and the
// cycle-exact execution/residency/energy accounting of CpuModel.
#include <gtest/gtest.h>

#include <cmath>

#include "cpu/cpu_model.h"
#include "cpu/cpuidle.h"
#include "cpu/opp.h"
#include "cpu/power_model.h"
#include "simcore/simulator.h"

namespace vafs::cpu {
namespace {

OppTable two_point_table() {
  return OppTable({{1'000'000, 900'000}, {2'000'000, 1'100'000}});
}

// ---------------------------------------------------------------- OppTable

TEST(OppTable, SortsAscending) {
  OppTable t({{900'000, 800'000}, {300'000, 600'000}, {600'000, 700'000}});
  EXPECT_EQ(t.at(0).freq_khz, 300'000u);
  EXPECT_EQ(t.at(2).freq_khz, 900'000u);
  EXPECT_EQ(t.min().freq_khz, 300'000u);
  EXPECT_EQ(t.max().freq_khz, 900'000u);
}

TEST(OppTable, IndexOf) {
  const OppTable t = OppTable::mobile_big_core();
  EXPECT_EQ(t.index_of(300'000), 0u);
  EXPECT_EQ(t.index_of(2'100'000), t.size() - 1);
  EXPECT_EQ(t.index_of(123), SIZE_MAX);
}

TEST(OppTable, ResolveAtLeastSnapsUp) {
  const OppTable t = OppTable::mobile_big_core();
  EXPECT_EQ(t.resolve(1, Relation::kAtLeast).freq_khz, 300'000u);
  EXPECT_EQ(t.resolve(900'001, Relation::kAtLeast).freq_khz, 1'200'000u);
  EXPECT_EQ(t.resolve(900'000, Relation::kAtLeast).freq_khz, 900'000u);
  EXPECT_EQ(t.resolve(9'999'999, Relation::kAtLeast).freq_khz, 2'100'000u);  // clamps
}

TEST(OppTable, ResolveAtMostSnapsDown) {
  const OppTable t = OppTable::mobile_big_core();
  EXPECT_EQ(t.resolve(899'999, Relation::kAtMost).freq_khz, 600'000u);
  EXPECT_EQ(t.resolve(900'000, Relation::kAtMost).freq_khz, 900'000u);
  EXPECT_EQ(t.resolve(1, Relation::kAtMost).freq_khz, 300'000u);  // clamps
}

TEST(OppTable, AvailableFrequenciesString) {
  EXPECT_EQ(two_point_table().available_frequencies_string(), "1000000 2000000");
}

TEST(OppTable, StepHelpersClampAtEdges) {
  const OppTable t = two_point_table();
  EXPECT_EQ(t.step_up(0), 1u);
  EXPECT_EQ(t.step_up(1), 1u);
  EXPECT_EQ(t.step_down(1), 0u);
  EXPECT_EQ(t.step_down(0), 0u);
}

TEST(OppTable, VoltageRampIsMonotonic) {
  for (const auto& table : {OppTable::mobile_big_core(), OppTable::mobile_little_core()}) {
    for (std::size_t i = 1; i < table.size(); ++i) {
      EXPECT_GT(table.at(i).volt_uv, table.at(i - 1).volt_uv);
    }
  }
}

// ------------------------------------------------------------- PowerModel

TEST(PowerModel, BusyPowerIncreasesSuperlinearlyWithOpp) {
  const CpuPowerModel model;
  const OppTable t = OppTable::mobile_big_core();
  double prev = 0.0;
  double prev_per_hz = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double mw = model.busy_mw(t.at(i));
    EXPECT_GT(mw, prev);
    const double per_hz = mw / t.at(i).freq_mhz();
    // Energy per cycle grows with frequency across the upper OPPs: the
    // voltage ramp makes high OPPs disproportionately expensive (the slack
    // VAFS exploits). At the bottom of the table leakage dominates, so a
    // small dip there is expected and realistic.
    if (i >= 3) {
      EXPECT_GT(per_hz, prev_per_hz);
    }
    prev = mw;
    prev_per_hz = per_hz;
  }
  // End to end, the top OPP must cost meaningfully more per cycle.
  EXPECT_GT(model.busy_mw(t.max()) / t.max().freq_mhz(),
            1.5 * model.busy_mw(t.at(2)) / t.at(2).freq_mhz());
}

TEST(PowerModel, MagnitudesInMobileRange) {
  const CpuPowerModel model;
  const OppTable t = OppTable::mobile_big_core();
  EXPECT_GT(model.busy_mw(t.max()), 1000.0);  // big core flat-out > 1 W
  EXPECT_LT(model.busy_mw(t.max()), 3000.0);
  EXPECT_LT(model.busy_mw(t.min()), 150.0);
  EXPECT_LT(model.idle_mw(), model.busy_mw(t.min()));
}

// --------------------------------------------------------------- CpuModel

class CpuModelTest : public ::testing::Test {
 protected:
  CpuModelTest()
      : cpu_(sim_, two_point_table(), CpuPowerModel(), sim::SimTime::micros(100)) {}

  sim::Simulator sim_;
  CpuModel cpu_;
};

TEST_F(CpuModelTest, StartsAtMinFrequencyIdle) {
  EXPECT_EQ(cpu_.cur_freq_khz(), 1'000'000u);
  EXPECT_FALSE(cpu_.busy());
  EXPECT_EQ(cpu_.transition_count(), 0u);
}

TEST_F(CpuModelTest, TaskCompletesAtExactCycleTime) {
  // 1e9 cycles at 1 GHz = 1 s.
  sim::SimTime done;
  cpu_.submit("t", 1e9, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done, sim::SimTime::seconds(1));
  EXPECT_FALSE(cpu_.busy());
}

TEST_F(CpuModelTest, HigherFrequencyFinishesProportionallyFaster) {
  cpu_.set_frequency(2'000'000);
  sim_.run_until(sim::SimTime::millis(1));  // absorb the transition stall
  sim::SimTime done;
  cpu_.submit("t", 1e9, [&] { done = sim_.now(); });
  const sim::SimTime start = sim_.now();
  sim_.run();
  EXPECT_EQ((done - start).as_micros(), 500'000);
}

TEST_F(CpuModelTest, ProcessorSharingSplitsCapacity) {
  // Two equal tasks at 1 GHz: both finish together after 2x the solo time.
  int finished = 0;
  sim::SimTime done_a, done_b;
  cpu_.submit("a", 5e8, [&] { ++finished; done_a = sim_.now(); });
  cpu_.submit("b", 5e8, [&] { ++finished; done_b = sim_.now(); });
  sim_.run();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(done_a, sim::SimTime::seconds(1));
  EXPECT_EQ(done_b, sim::SimTime::seconds(1));
}

TEST_F(CpuModelTest, UnequalTasksFinishInOrder) {
  sim::SimTime done_small, done_big;
  cpu_.submit("small", 1e8, [&] { done_small = sim_.now(); });
  cpu_.submit("big", 1e9, [&] { done_big = sim_.now(); });
  sim_.run();
  // Shared until the small one finishes at 2e8 cycles wall-equivalent
  // (200 ms), then the big one runs alone.
  EXPECT_EQ(done_small.as_micros(), 200'000);
  EXPECT_EQ(done_big.as_micros(), 1'100'000);
}

TEST_F(CpuModelTest, CancelStopsCallback) {
  bool ran = false;
  const auto id = cpu_.submit("t", 1e9, [&] { ran = true; });
  EXPECT_TRUE(cpu_.cancel(id));
  sim_.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(cpu_.cancel(id));  // already gone
}

TEST_F(CpuModelTest, BusyAndIdleResidencySplit) {
  cpu_.submit("t", 5e8, nullptr);  // 500 ms at 1 GHz
  sim_.run();
  sim_.run_until(sim::SimTime::seconds(2));
  EXPECT_EQ(cpu_.total_busy_time().as_micros(), 500'000);
  EXPECT_EQ(cpu_.total_idle_time().as_micros(), 1'500'000);
  EXPECT_EQ(cpu_.time_in_state(0).as_micros(), 2'000'000);
}

TEST_F(CpuModelTest, FrequencyChangeCountsAndReprogramIsFree) {
  cpu_.set_frequency(2'000'000);
  EXPECT_EQ(cpu_.transition_count(), 1u);
  cpu_.set_frequency(2'000'000);  // same OPP: no-op
  EXPECT_EQ(cpu_.transition_count(), 1u);
  cpu_.set_frequency(1'000'000, Relation::kAtMost);
  EXPECT_EQ(cpu_.transition_count(), 2u);
}

TEST_F(CpuModelTest, TransitionStallDelaysCompletion) {
  cpu_.submit("t", 1e8, nullptr);  // 100 ms at 1 GHz solo
  sim_.run_until(sim::SimTime::millis(50));
  cpu_.set_frequency(2'000'000);  // halfway: 5e7 cycles left
  sim::SimTime done;
  cpu_.submit("marker", 0, nullptr);  // forces reschedule bookkeeping
  sim_.run();
  // Remaining 5e7 cycles at 2 GHz = 25 ms, plus the 100 us stall.
  EXPECT_EQ(cpu_.total_busy_time().as_micros(), 50'000 + 100 + 25'000);
}

TEST_F(CpuModelTest, EnergyMatchesHandComputation) {
  const CpuPowerModel model;
  cpu_.submit("t", 1e9, nullptr);  // busy 1 s at OPP0
  sim_.run();
  sim_.run_until(sim::SimTime::seconds(3));  // idle 2 s
  const double expected = 1.0 * model.busy_mw(two_point_table().at(0)) + 2.0 * model.idle_mw();
  EXPECT_NEAR(cpu_.energy_mj(), expected, 1e-6);
}

TEST_F(CpuModelTest, TransitionEnergyIsCharged) {
  const double before = cpu_.energy_mj();
  cpu_.set_frequency(2'000'000);
  sim_.run_until(sim::SimTime::micros(100));  // idle through the stall
  const double after = cpu_.energy_mj();
  // Only idle power over 100 us plus one transition's energy.
  const CpuPowerModel model;
  EXPECT_NEAR(after - before, model.transition_uj() / 1000.0 + 100e-6 * model.idle_mw(), 1e-9);
}

TEST_F(CpuModelTest, PeltRisesWhenBusyAndDecaysWhenIdle) {
  cpu_.set_frequency(2'000'000);  // max: busy contribution = 1.0
  sim_.run();
  cpu_.submit("t", 2e9, nullptr);  // 1 s at 2 GHz
  sim_.run_until(sim::SimTime::millis(400));
  const double busy_util = cpu_.pelt_util();
  EXPECT_GT(busy_util, 0.95);  // > 10 half-lives of busy
  sim_.run();                  // finish task
  sim_.run_until(sim_.now() + sim::SimTime::millis(32));
  const double decayed = cpu_.pelt_util();
  EXPECT_NEAR(decayed, busy_util / 2.0, 0.05);  // one idle half-life
}

TEST_F(CpuModelTest, PeltIsFrequencyInvariant) {
  // Always-busy at min frequency should read ~0.5 of max capacity.
  cpu_.submit("t", 1e12, nullptr);
  sim_.run_until(sim::SimTime::millis(500));
  EXPECT_NEAR(cpu_.pelt_util(), 0.5, 0.02);
}

/// A stand-alone copy of the model's PELT recurrence: one segment of length
/// `d` at contribution `contrib` folded into `util`, decayed by exp2 itself.
double reference_pelt_fold(double util, sim::SimTime d, double contrib) {
  if (util == 0.0 && contrib == 0.0) return util;
  const double decay = std::exp2(-d.as_seconds_f() * 1e6 / 32'000.0);
  return util * decay + contrib * (1.0 - decay);
}

TEST_F(CpuModelTest, PeltMatchesTheReferenceRecurrenceBitForBit) {
  // Segment lengths straddle the 2^15 us edge of the shared decay table.
  // The reference decays by the measured segment (a run-time value, so
  // the compiler cannot fold the exponential at build time).
  double reference = 0.0;
  auto segment = [&](std::int64_t us, double contrib) {
    const sim::SimTime start = sim_.now();
    sim_.run_until(start + sim::SimTime::micros(us));
    reference = reference_pelt_fold(reference, sim_.now() - start, contrib);
    EXPECT_EQ(cpu_.pelt_util(), reference) << "after a segment of " << us << " us";
  };
  const auto a = cpu_.submit("a", 1e12, nullptr);  // busy at 1 of 2 GHz: 0.5
  for (const std::int64_t us : {1, 4'000, 20'000}) segment(us, 0.5);
  cpu_.set_frequency(2'000'000);  // the 100 us transition retires nothing
  segment(100, 0.0);
  for (const std::int64_t us : {32'767, 32'768}) segment(us, 1.0);
  const auto b = cpu_.submit("b", 1e12, nullptr);  // two tasks share the core
  for (const std::int64_t us : {32'769, 33'333}) segment(us, 1.0);
  ASSERT_TRUE(cpu_.cancel(a));
  ASSERT_TRUE(cpu_.cancel(b));
  segment(100'000, 0.0);  // idle: decay only
  EXPECT_GT(reference, 0.0);
}

TEST_F(CpuModelTest, CpuidleEnergyIsBusyPlusTransitionsPlusEachIdleGap) {
  CpuidleModel cpuidle(CpuidleParams::mobile(), CpuidleStrategy::kMenu);
  cpu_.set_cpuidle(&cpuidle);
  auto idle = [&](std::int64_t us) { sim_.run_until(sim_.now() + sim::SimTime::micros(us)); };
  idle(3'000);
  cpu_.submit("a", 2e6, nullptr);  // 2 ms at 1 GHz
  sim_.run();
  idle(30'000);
  cpu_.submit("b", 4e6, nullptr);
  cpu_.set_frequency(2'000'000);  // 100 us stall, then 2 ms at 2 GHz
  sim_.run();
  idle(30'000);
  cpu_.submit("c", 4e6, nullptr);
  sim_.run();
  idle(400);
  cpu_.submit("d", 1e6, nullptr);
  sim_.run();
  idle(90'000);
  cpu_.submit("e", 4e6, nullptr);
  idle(1'000);  // stop mid-task, so no idle period is open

  // The same gaps, in the same order, priced by an identical model.
  CpuidleModel reference(CpuidleParams::mobile(), CpuidleStrategy::kMenu);
  double idle_mj = 0.0;
  for (const std::int64_t us : {3'000, 30'000, 30'000, 400, 90'000}) {
    idle_mj += reference.record_idle(sim::SimTime::micros(us));
  }
  const CpuPowerModel model;
  double busy_mj = 0.0;
  for (std::size_t i = 0; i < cpu_.opps().size(); ++i) {
    busy_mj += cpu_.busy_time_in_state(i).as_seconds_f() * model.busy_mw(cpu_.opps().at(i));
  }
  const double transition_mj = model.transition_uj() / 1000.0;

  EXPECT_EQ(cpuidle.periods(), 5u);
  EXPECT_GT(cpuidle.entries(1), 0u);  // the menu went below WFI at least once
  EXPECT_EQ(cpu_.total_busy_time().as_micros(), 2'000 + 2'100 + 2'000 + 500 + 1'000);
  EXPECT_DOUBLE_EQ(cpu_.energy_mj(), busy_mj + idle_mj + transition_mj);
}

TEST_F(CpuModelTest, FreqListenerFires) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> changes;
  cpu_.add_freq_listener([&](std::uint32_t from, std::uint32_t to) {
    changes.emplace_back(from, to);
  });
  cpu_.set_frequency(2'000'000);
  cpu_.set_frequency(2'000'000);
  cpu_.set_frequency(500'000, Relation::kAtMost);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0], std::make_pair(1'000'000u, 2'000'000u));
  EXPECT_EQ(changes[1], std::make_pair(2'000'000u, 1'000'000u));
}

TEST_F(CpuModelTest, ZeroCycleTaskCompletesImmediately) {
  bool ran = false;
  cpu_.submit("t", 0, [&] { ran = true; });
  sim_.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim_.now(), sim::SimTime::zero());
}

TEST_F(CpuModelTest, CompletionCallbackCanSubmitMoreWork) {
  sim::SimTime second_done;
  cpu_.submit("first", 1e8, [&] {
    cpu_.submit("second", 1e8, [&] { second_done = sim_.now(); });
  });
  sim_.run();
  EXPECT_EQ(second_done.as_micros(), 200'000);
}

TEST_F(CpuModelTest, TimeInStateTracksPerOppWallTime) {
  sim_.run_until(sim::SimTime::millis(300));
  cpu_.set_frequency(2'000'000);
  sim_.run_until(sim::SimTime::millis(1000));
  EXPECT_EQ(cpu_.time_in_state(0).as_micros(), 300'000);
  EXPECT_EQ(cpu_.time_in_state(1).as_micros(), 700'000);
}

}  // namespace
}  // namespace vafs::cpu
