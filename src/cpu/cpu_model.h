// The simulated CPU: executes cycle-quantified tasks at the currently
// programmed OPP, tracks per-OPP residency exactly, and exposes the load
// signals real governors consume (windowed busy fraction and a PELT-style
// decayed utilization).
//
// Execution model: a single core with processor sharing — all runnable
// tasks progress at rate f / k where k is the number of runnable tasks.
// This is sufficient for the video pipeline, whose phases (download
// processing, frame decode) overlap only briefly; what governors observe is
// busy time and residency, both of which are exact here.
//
// DVFS transitions have a latency during which no cycles retire (the core
// stalls at the *new* OPP's power) and a fixed energy cost.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "cpu/cpu_sink.h"
#include "cpu/cpuidle.h"
#include "cpu/opp.h"
#include "cpu/power_model.h"
#include "simcore/simulator.h"

namespace vafs::cpu {

class CpuModel final : public CpuSink {
 public:
  using TaskId = std::uint64_t;
  static constexpr TaskId kInvalidTask = 0;

  CpuModel(sim::Simulator& simulator, OppTable opps, CpuPowerModel power,
           sim::SimTime transition_latency = sim::SimTime::micros(150));

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  // ---- Workload interface -------------------------------------------------

  /// Submits a task needing `cycles` CPU cycles; `on_complete` fires (via
  /// the event queue) when it has retired them all. Returns its id.
  TaskId submit(std::string_view name, double cycles, sim::EventFn on_complete) override;

  /// Cancels a pending task. Returns false if it already completed.
  bool cancel(TaskId id) override;

  bool busy() const { return !tasks_.empty(); }
  std::size_t runnable_count() const { return tasks_.size(); }

  // ---- Frequency control --------------------------------------------------

  const OppTable& opps() const { return opps_; }
  std::uint32_t cur_freq_khz() const { return opps_.at(cur_opp_).freq_khz; }
  std::size_t cur_opp_index() const { return cur_opp_; }

  /// Programs a new frequency (snapped to the OPP grid). A real change
  /// stalls the core for the transition latency and costs transition
  /// energy; re-programming the current OPP is free.
  void set_frequency(std::uint32_t target_khz, Relation rel = Relation::kAtLeast);

  std::uint64_t transition_count() const { return transitions_; }
  sim::SimTime transition_latency() const { return transition_latency_; }

  /// Transition matrix: how often the CPU moved from OPP `from` to OPP
  /// `to` — the kernel's stats/trans_table.
  std::uint64_t transitions_between(std::size_t from, std::size_t to) const;

  // ---- Load signals (what governors read) ---------------------------------

  /// Total busy time since construction (all OPPs). Sampling governors
  /// compute window load by differencing two readings.
  sim::SimTime total_busy_time();

  /// PELT-style utilization in [0, 1]: exponentially decayed (32 ms
  /// half-life), frequency-invariant (busy time at f counts as f/f_max).
  /// This is the signal schedutil consumes.
  double pelt_util();

  // ---- Residency & energy (what the power meter reads) --------------------

  /// Wall-clock time spent programmed at OPP i (busy + idle), like the
  /// kernel's stats/time_in_state.
  sim::SimTime time_in_state(std::size_t opp_index);

  /// Busy time at OPP i (the energy-relevant split).
  sim::SimTime busy_time_in_state(std::size_t opp_index);

  sim::SimTime total_idle_time();

  /// Total CPU energy so far, in millijoules: residency-weighted power
  /// plus transition costs. Idle periods are priced by the attached
  /// cpuidle model if any, else at the power model's flat WFI power.
  double energy_mj();

  const CpuPowerModel& power_model() const { return power_; }

  /// Attaches a cpuidle model (not owned; may be null to detach). Idle
  /// periods completed from now on are priced by it.
  void set_cpuidle(CpuidleModel* cpuidle);
  CpuidleModel* cpuidle() { return cpuidle_; }

  // ---- Observers -----------------------------------------------------------

  /// Called after every actual frequency change with (old_khz, new_khz).
  void add_freq_listener(std::function<void(std::uint32_t, std::uint32_t)> fn);

 private:
  struct Task {
    TaskId id;
    std::string_view name;  // referenced, not owned (a literal in practice)
    double cycles_remaining;
    sim::EventFn on_complete;
  };

  /// Brings accounting (residency, PELT, task progress) up to now().
  /// Every public reader calls this first, so most calls find the clock
  /// already caught up — that no-op check stays inline.
  void advance() {
    if (last_advance_ < sim_.now()) advance_slow();
  }
  void advance_slow();

  /// The PELT decay over a segment of length `d`: read from the shared
  /// exact table for d < 2^15 µs, evaluated otherwise. Bit-identical
  /// either way.
  double pelt_decay(sim::SimTime d) const;

  /// Re-schedules the completion event for the earliest-finishing task.
  void reschedule_completion();

  void on_completion_event();

  sim::Simulator& sim_;
  OppTable opps_;
  CpuPowerModel power_;
  sim::SimTime transition_latency_;
  /// Per-OPP constants, fixed at construction: the PELT contribution of
  /// running at OPP i (f_i / f_max) and the cycles it retires per µs.
  std::vector<double> capacity_;
  std::vector<double> rate_;
  /// The process-wide decay table (read-only; see pelt_decay).
  const double* decay_table_;

  std::size_t cur_opp_;
  std::vector<Task> tasks_;
  /// Completion callbacks collected before firing; member so the capacity
  /// survives across completion events (cleared after each use, never
  /// accessed reentrantly — callbacks run after collection finishes).
  std::vector<sim::EventFn> done_scratch_;
  TaskId next_task_id_ = 1;

  sim::SimTime last_advance_ = sim::SimTime::zero();
  sim::SimTime freeze_until_ = sim::SimTime::zero();

  /// Closes the open idle period (if tracking) and prices it.
  void close_idle_period();

  std::vector<sim::SimTime> wall_in_state_;
  std::vector<sim::SimTime> busy_in_state_;
  sim::SimTime total_busy_ = sim::SimTime::zero();  // running sum of busy_in_state_
  sim::SimTime idle_time_ = sim::SimTime::zero();
  std::uint64_t transitions_ = 0;
  std::vector<std::uint64_t> trans_table_;  // size() x size(), row-major from->to

  CpuidleModel* cpuidle_ = nullptr;
  bool idle_open_ = true;  // the core starts idle
  sim::SimTime idle_since_ = sim::SimTime::zero();
  double idle_energy_mj_ = 0.0;  // priced by cpuidle_; unused when null

  double pelt_util_ = 0.0;

  sim::EventHandle completion_event_;
  std::vector<std::function<void(std::uint32_t, std::uint32_t)>> freq_listeners_;
};

}  // namespace vafs::cpu
