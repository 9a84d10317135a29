#include "simcore/event_queue.h"

#include <utility>

namespace vafs::sim {

void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, gen_);
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_matches(slot_, gen_);
}

EventQueue::EventQueue(Arena* arena) : arena_(arena) {
  if (arena_ != nullptr) {
    slots_ = std::move(arena_->slots_);
    heap_ = std::move(arena_->heap_);
    free_ = std::move(arena_->free_);
  }
}

EventQueue::~EventQueue() {
  if (arena_ != nullptr) {
    // Return the storage with its capacity; contents (including any
    // pending callbacks) are destroyed, generations reset with the slots.
    slots_.clear();
    heap_.clear();
    free_.clear();
    arena_->slots_ = std::move(slots_);
    arena_->heap_ = std::move(heap_);
    arena_->free_ = std::move(free_);
  }
}

std::uint32_t EventQueue::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventHandle EventQueue::arm(SimTime when, SimTime period, EventFn&& fn) {
  const std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  s.period = period;
  s.in_heap = true;
  push_entry(HeapEntry{when, s.seq, idx, s.gen});
  return EventHandle(this, idx, s.gen);
}

EventHandle EventQueue::schedule(SimTime when, EventFn fn) {
  return arm(when, SimTime::zero(), std::move(fn));
}

EventHandle EventQueue::schedule_periodic(SimTime first, SimTime period, EventFn fn) {
  assert(period > SimTime::zero());
  return arm(first, period, std::move(fn));
}

bool EventQueue::reschedule(const EventHandle& h, SimTime when) {
  if (h.queue_ != this || !slot_matches(h.slot_, h.gen_)) return false;
  Slot& s = slots_[h.slot_];
  if (s.in_heap) ++stale_;  // the old entry is now dead weight in the heap
  s.seq = next_seq_++;
  s.in_heap = true;
  push_entry(HeapEntry{when, s.seq, h.slot_, s.gen});
  return true;
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_matches(slot, gen)) return;
  Slot& s = slots_[slot];
  if (s.in_heap) {
    ++stale_;
    s.in_heap = false;
  }
  ++s.gen;
  s.fn.reset();  // release captures eagerly
  s.period = SimTime::zero();
  free_.push_back(slot);
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (!is_stale(heap_[i])) heap_[kept++] = heap_[i];
  }
  heap_.resize(kept);
  stale_ = 0;
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) >> 2; ; --i) {
      sift_down(i);
      if (i == 0) break;
    }
  }
}

bool EventQueue::empty() {
  settle_head();
  return heap_.empty();
}

SimTime EventQueue::next_time() {
  settle_head();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  settle_head();
  assert(!heap_.empty());
  Popped out;
  take_root(&out);
  return out;
}

}  // namespace vafs::sim
