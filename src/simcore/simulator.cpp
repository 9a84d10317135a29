#include "simcore/simulator.h"

#include <cassert>
#include <utility>

namespace vafs::sim {

EventHandle Simulator::at(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule in the past");
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulator::after(SimTime delay, EventFn fn) {
  assert(!delay.is_negative() && "negative delay");
  return at(now_ + delay, std::move(fn));
}

EventHandle Simulator::every(SimTime period, EventFn fn) {
  assert(period > SimTime::zero() && "period must be positive");
  return queue_.schedule_periodic(now_ + period, period, std::move(fn));
}

bool Simulator::reschedule(EventHandle& handle, SimTime when) {
  assert(when >= now_ && "cannot schedule in the past");
  return queue_.reschedule(handle, when);
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t fired = 0;
  EventQueue::Popped ev;
  while (fired < limit && queue_.pop_next(SimTime::max(), &ev)) {
    assert(ev.time >= now_);
    fire(std::move(ev));
    ++fired;
  }
  return fired;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t fired = 0;
  EventQueue::Popped ev;
  while (queue_.pop_next(deadline, &ev)) {
    assert(ev.time >= now_);
    fire(std::move(ev));
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace vafs::sim
