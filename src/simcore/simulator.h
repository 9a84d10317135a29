// The simulation driver: a clock plus the event queue.
//
// Components hold a Simulator& and schedule callbacks on it. The driver
// loop (run / run_until / step) advances the clock to each event's time and
// fires it. Determinism: same seed + same schedule calls => identical runs.
#pragma once

#include <cstdint>
#include <utility>

#include "simcore/event_queue.h"
#include "simcore/time.h"

namespace vafs::sim {

class Simulator {
 public:
  /// With an arena, the event slab/heap storage is borrowed from (and
  /// returned to) it — back-to-back simulators sharing one arena run
  /// allocation-free after the first session warms the capacity.
  explicit Simulator(EventQueue::Arena* arena = nullptr) : queue_(arena) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must be >= now()).
  EventHandle at(SimTime when, EventFn fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventHandle after(SimTime delay, EventFn fn);

  /// Schedules `fn` to run repeatedly with the given period, first firing
  /// after one period. The returned handle cancels the *series*.
  EventHandle every(SimTime period, EventFn fn);

  /// Moves a still-pending event to absolute time `when` (>= now()),
  /// keeping its callback — the allocation-free re-arm for timer-style
  /// events. Returns false if the handle no longer refers to a pending
  /// event (caller then schedules a fresh one).
  bool reschedule(EventHandle& handle, SimTime when);

  /// Runs events until the queue drains or `limit` events fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with time <= deadline, then advances the clock to exactly
  /// `deadline` (even if the queue drained earlier). Returns events fired.
  std::uint64_t run_until(SimTime deadline);

  /// Fires exactly one event if any is pending. Returns whether one fired.
  /// Inline with fire() and the queue's pop/re-arm path: this is the
  /// session run loop's per-event call.
  bool step() {
    EventQueue::Popped ev;
    if (!queue_.pop_next(SimTime::max(), &ev)) return false;
    fire(std::move(ev));
    return true;
  }

  /// True if no runnable events remain.
  bool idle() { return queue_.empty(); }

  /// Absolute time of the earliest runnable event, or SimTime::max() when
  /// none remain. May lazily drop cancelled entries to answer; does not
  /// advance the clock or fire anything.
  SimTime next_event_time() { return queue_.empty() ? SimTime::max() : queue_.next_time(); }

  /// Total events executed over the simulator's lifetime.
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  void fire(EventQueue::Popped&& ev) {
    now_ = ev.time;
    ev.fn();
    queue_.rearm(std::move(ev));  // keeps periodic series alive; no-op otherwise
    ++events_executed_;
  }

  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
};

}  // namespace vafs::sim
