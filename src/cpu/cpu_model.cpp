#include "cpu/cpu_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vafs::cpu {
namespace {

constexpr double kPeltHalflifeUs = 32'000.0;  // 32 ms, as in the kernel
constexpr double kCycleEpsilon = 0.5;         // sub-cycle residue counts as done
constexpr std::int64_t kDecayTableSize = std::int64_t{1} << 15;  // 256 KiB of doubles

/// The one PELT decay expression: the table and the long-segment fallback
/// both evaluate it, so a table entry cannot differ from a direct call.
double exact_pelt_decay(sim::SimTime d) {
  return std::exp2(-d.as_seconds_f() * 1e6 / kPeltHalflifeUs);
}

/// exact_pelt_decay(µs) for every µs below kDecayTableSize, filled at run
/// time on first use and shared read-only by every CpuModel in the process
/// (C++11 makes the static's initialisation thread-safe). Not constexpr on
/// purpose: the compiler rounds a compile-time exponential itself, which
/// may differ from libm's run-time result in the last bit.
const double* shared_decay_table() {
  static const std::vector<double> table = [] {
    std::vector<double> values(kDecayTableSize);
    for (std::int64_t us = 0; us < kDecayTableSize; ++us) {
      values[us] = exact_pelt_decay(sim::SimTime::micros(us));
    }
    return values;
  }();
  return table.data();
}

}  // namespace

CpuModel::CpuModel(sim::Simulator& simulator, OppTable opps, CpuPowerModel power,
                   sim::SimTime transition_latency)
    : sim_(simulator),
      opps_(std::move(opps)),
      power_(power),
      transition_latency_(transition_latency),
      decay_table_(shared_decay_table()),
      cur_opp_(0),
      wall_in_state_(opps_.size(), sim::SimTime::zero()),
      busy_in_state_(opps_.size(), sim::SimTime::zero()),
      trans_table_(opps_.size() * opps_.size(), 0) {
  const double max_khz = static_cast<double>(opps_.max().freq_khz);
  for (std::size_t i = 0; i < opps_.size(); ++i) {
    const double khz = static_cast<double>(opps_.at(i).freq_khz);
    capacity_.push_back(khz / max_khz);
    rate_.push_back(khz / 1000.0);
  }
}

void CpuModel::advance_slow() {
  sim::SimTime now = sim_.now();
  while (last_advance_ < now) {
    // A segment ends at `now` or at the freeze boundary, whichever is first;
    // within a segment the execution conditions are constant.
    const bool frozen = last_advance_ < freeze_until_;
    const sim::SimTime seg_end = frozen ? std::min(now, freeze_until_) : now;
    const sim::SimTime d = seg_end - last_advance_;
    const bool is_busy = !tasks_.empty();

    wall_in_state_[cur_opp_] += d;
    if (is_busy) {
      busy_in_state_[cur_opp_] += d;
      total_busy_ += d;  // micros are integral, so the running sum is exact
    } else {
      idle_time_ += d;
    }

    // PELT: frequency-invariant decayed utilization, updated on every
    // segment whether or not the governor reads it, so a session that
    // switches to schedutil mid-run reads the same value. A fully-decayed
    // idle signal stays at exactly 0 without a decay lookup.
    const bool running = is_busy && !frozen;
    const double contrib = running ? capacity_[cur_opp_] : 0.0;
    if (pelt_util_ != 0.0 || contrib != 0.0) {
      const double decay = pelt_decay(d);
      pelt_util_ = pelt_util_ * decay + contrib * (1.0 - decay);
    }

    if (running) {
      // Processor sharing: k tasks each retire d * f / k cycles. k is
      // constant within the segment because every change point (submit,
      // cancel, completion, freq change) re-enters advance() first. A lone
      // task skips the division, which by 1.0 would change no value.
      double per_task = static_cast<double>(d.as_micros()) * rate_[cur_opp_];
      if (tasks_.size() > 1) per_task /= static_cast<double>(tasks_.size());
      for (auto& task : tasks_) {
        task.cycles_remaining = std::max(0.0, task.cycles_remaining - per_task);
      }
    }
    last_advance_ = seg_end;
  }
}

double CpuModel::pelt_decay(sim::SimTime d) const {
  const std::int64_t us = d.as_micros();
  return us >= 0 && us < kDecayTableSize ? decay_table_[us] : exact_pelt_decay(d);
}

void CpuModel::reschedule_completion() {
  if (tasks_.empty()) {
    completion_event_.cancel();
    return;
  }

  double min_cycles = tasks_.front().cycles_remaining;
  for (const auto& task : tasks_) min_cycles = std::min(min_cycles, task.cycles_remaining);

  const sim::SimTime now = sim_.now();
  sim::SimTime when = now;
  if (freeze_until_ > now) when = freeze_until_;
  const double exec_us = min_cycles * static_cast<double>(tasks_.size()) / rate_[cur_opp_];
  when += sim::SimTime::micros(static_cast<std::int64_t>(std::ceil(exec_us)));
  if (when <= now) when = now;  // fire "immediately" for zero-cycle tasks
  // Re-arm the pending event in place when possible; this is the hottest
  // schedule path in a session (every submit/cancel/freq change lands here).
  if (!sim_.reschedule(completion_event_, when)) {
    completion_event_ = sim_.at(when, [this] { on_completion_event(); });
  }
}

void CpuModel::on_completion_event() {
  advance();
  // Collect finished tasks first; callbacks may submit new work or change
  // frequency, both of which re-enter this object. Stable compaction keeps
  // survivors and callbacks in submission order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].cycles_remaining <= kCycleEpsilon) {
      if (tasks_[i].on_complete) done_scratch_.push_back(std::move(tasks_[i].on_complete));
    } else {
      if (kept != i) tasks_[kept] = std::move(tasks_[i]);
      ++kept;
    }
  }
  tasks_.resize(kept);
  if (tasks_.empty()) {  // busy -> idle (callbacks may immediately resubmit)
    idle_open_ = true;
    idle_since_ = sim_.now();
  }
  reschedule_completion();
  for (auto& fn : done_scratch_) fn();
  done_scratch_.clear();
}

void CpuModel::close_idle_period() {
  if (!idle_open_) return;
  idle_open_ = false;
  const sim::SimTime duration = sim_.now() - idle_since_;
  if (cpuidle_ != nullptr) idle_energy_mj_ += cpuidle_->record_idle(duration);
}

CpuModel::TaskId CpuModel::submit(std::string_view name, double cycles,
                                  sim::EventFn on_complete) {
  assert(cycles >= 0.0);
  advance();
  if (tasks_.empty()) close_idle_period();  // idle -> busy
  const TaskId id = next_task_id_++;
  tasks_.push_back(Task{id, name, cycles, std::move(on_complete)});
  reschedule_completion();
  return id;
}

bool CpuModel::cancel(TaskId id) {
  advance();
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->id == id) {
      tasks_.erase(it);
      if (tasks_.empty()) {  // busy -> idle
        idle_open_ = true;
        idle_since_ = sim_.now();
      }
      reschedule_completion();
      return true;
    }
  }
  return false;
}

void CpuModel::set_frequency(std::uint32_t target_khz, Relation rel) {
  advance();
  const std::size_t new_index = opps_.resolve_index(target_khz, rel);
  if (new_index == cur_opp_) return;
  const Opp& opp = opps_.at(new_index);

  const std::uint32_t old_khz = cur_freq_khz();
  trans_table_[cur_opp_ * opps_.size() + new_index] += 1;
  cur_opp_ = new_index;
  ++transitions_;
  freeze_until_ = sim_.now() + transition_latency_;
  reschedule_completion();
  for (const auto& fn : freq_listeners_) fn(old_khz, opp.freq_khz);
}

sim::SimTime CpuModel::total_busy_time() {
  advance();
  return total_busy_;
}

double CpuModel::pelt_util() {
  advance();
  return pelt_util_;
}

sim::SimTime CpuModel::time_in_state(std::size_t opp_index) {
  advance();
  assert(opp_index < wall_in_state_.size());
  return wall_in_state_[opp_index];
}

sim::SimTime CpuModel::busy_time_in_state(std::size_t opp_index) {
  advance();
  assert(opp_index < busy_in_state_.size());
  return busy_in_state_[opp_index];
}

sim::SimTime CpuModel::total_idle_time() {
  advance();
  return idle_time_;
}

double CpuModel::energy_mj() {
  advance();
  double mj = 0.0;
  for (std::size_t i = 0; i < opps_.size(); ++i) {
    mj += busy_in_state_[i].as_seconds_f() * power_.busy_mw(opps_.at(i));
  }
  if (cpuidle_ != nullptr) {
    mj += idle_energy_mj_;
    if (idle_open_) mj += cpuidle_->preview(sim_.now() - idle_since_);
  } else {
    mj += idle_time_.as_seconds_f() * power_.idle_mw();
  }
  mj += static_cast<double>(transitions_) * power_.transition_uj() / 1000.0;
  return mj;
}

void CpuModel::set_cpuidle(CpuidleModel* cpuidle) {
  advance();
  // Mixing flat and per-period pricing of already-elapsed idle time would
  // double- or under-count; require attachment before any idle accrues.
  assert((cpuidle == nullptr || idle_time_.is_zero()) &&
         "attach cpuidle before the core accrues idle time");
  close_idle_period();
  cpuidle_ = cpuidle;
  if (!busy()) {
    idle_open_ = true;
    idle_since_ = sim_.now();
  }
}

std::uint64_t CpuModel::transitions_between(std::size_t from, std::size_t to) const {
  assert(from < opps_.size() && to < opps_.size());
  return trans_table_[from * opps_.size() + to];
}

void CpuModel::add_freq_listener(std::function<void(std::uint32_t, std::uint32_t)> fn) {
  freq_listeners_.push_back(std::move(fn));
}

}  // namespace vafs::cpu
