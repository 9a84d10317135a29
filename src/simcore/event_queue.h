// The event queue at the heart of the discrete-event simulation.
//
// Events are (time, sequence, callback) triples ordered by time and, for
// equal times, by insertion order — guaranteeing deterministic execution.
//
// Storage is allocation-free in steady state: callbacks live in a slab of
// pooled slots (small-buffer callables, no std::function), the priority
// structure is a 4-ary implicit heap of 24-byte POD entries, and handles
// are (slot, generation) pairs — cancellation is O(1) and lazy (the heap
// entry is skipped when it surfaces, with a compaction pass when stale
// entries outnumber live ones). A slab can be donated via EventQueue::Arena
// so back-to-back simulations (the experiment runner's per-worker loop)
// reuse the same memory.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/inline_fn.h"
#include "simcore/time.h"

namespace vafs::sim {

/// Event callbacks: move-only, 64 bytes of inline capture storage — enough
/// for every callback in the pipeline (heap fallback beyond that).
using EventFn = InlineFunction<64>;

class EventQueue;

/// Handle to a scheduled event; allows cancellation. Copyable and cheap.
/// A default-constructed handle refers to no event. A handle must not be
/// used after its EventQueue is destroyed (components always die with or
/// before their Simulator, which owns the queue).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly
  /// and on empty handles. For a periodic series, cancels the series.
  void cancel();

  /// True if the handle refers to an event that is still pending.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Min-heap of timed events with stable ordering for simultaneous events.
class EventQueue {
 private:
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  // sequence of this slot's live heap entry
    SimTime period;         // nonzero => periodic series
    std::uint32_t gen = 0;  // bumped on free; validates handles and entries
    bool in_heap = false;
  };
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

 public:
  /// Reusable slab + heap storage. Donate one arena to at most one live
  /// EventQueue at a time; capacity survives queue destruction, so a
  /// worker running thousands of back-to-back sessions allocates only
  /// during the first.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

   private:
    friend class EventQueue;
    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;
    std::vector<std::uint32_t> free_;
  };

  explicit EventQueue(Arena* arena = nullptr);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`. `when` must not be in
  /// the past relative to the last popped event (checked by Simulator).
  EventHandle schedule(SimTime when, EventFn fn);

  /// Schedules a periodic series: first firing at `first`, then every
  /// `period` after each firing (re-armed by rearm()). The handle cancels
  /// the whole series.
  EventHandle schedule_periodic(SimTime first, SimTime period, EventFn fn);

  /// Moves a still-pending event to `when`, keeping its callback (the
  /// allocation-free form of cancel + re-schedule with the same lambda).
  /// The event is re-sequenced as if newly scheduled. Returns false — and
  /// does nothing — if the handle is empty, fired or cancelled.
  bool reschedule(const EventHandle& h, SimTime when);

  /// True if no runnable (non-cancelled) event remains. May drop stale
  /// entries to answer.
  bool empty();

  /// Time of the earliest runnable event. Requires !empty().
  SimTime next_time();

  /// Removes and returns the earliest runnable event. Requires !empty().
  /// For periodic events, pass the fired Popped back to rearm() to keep
  /// the series alive (the Simulator run loop does this).
  struct Popped {
    SimTime time;
    EventFn fn;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    bool periodic = false;
  };
  Popped pop();

  /// Fused empty() + next_time() + pop(): pops the earliest runnable event
  /// into `out` if one exists and fires no later than `deadline`. One
  /// settle of the heap head where the three-call form does three — this
  /// is the run loop's per-event path.
  bool pop_next(SimTime deadline, Popped* out);

  /// Re-arms a popped periodic event one period after its firing time —
  /// unless the series was cancelled from inside its own callback. No-op
  /// for one-shot events.
  void rearm(Popped&& popped);

  /// Number of entries in the heap, including not-yet-collected stale
  /// ones. For tests and introspection only.
  std::size_t raw_size() const { return heap_.size(); }
  /// Stale (cancelled/rescheduled) entries still occupying the heap.
  std::size_t stale_entries() const { return stale_; }
  /// Total slots in the slab (live + free). For tests.
  std::size_t slab_size() const { return slots_.size(); }

 private:
  friend class EventHandle;

  bool slot_matches(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  std::uint32_t alloc_slot();
  EventHandle arm(SimTime when, SimTime period, EventFn&& fn);

  bool is_stale(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen != e.gen || s.seq != e.seq;
  }

  /// Heap ops on the 4-ary implicit heap (children of i: 4i+1 .. 4i+4).
  /// The ones on the per-event path (pop_next -> fire -> rearm) are
  /// defined inline below, so the run loop compiles as one unit and calls
  /// nothing out of line but the callback; compact() is rare and stays out.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void push_entry(const HeapEntry& e);
  void pop_root();
  /// Pops the (already settled, live) root into `out`.
  void take_root(Popped* out);
  void sift_down(std::size_t i);
  /// Drops stale entries off the head so the root is live (or heap empty).
  void settle_head();
  /// Removes every stale entry and re-heapifies. Called when stale entries
  /// outnumber live ones.
  void compact();

  /// Below this heap size, compaction is not worth the pass.
  static constexpr std::size_t kCompactMinHeap = 64;

  Arena* arena_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t stale_ = 0;
};

inline void EventQueue::push_entry(const HeapEntry& e) {
  if (stale_ > (heap_.size() >> 1) && heap_.size() >= kCompactMinHeap) compact();
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

inline void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 <= n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

inline void EventQueue::pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

inline void EventQueue::settle_head() {
  while (!heap_.empty() && is_stale(heap_.front())) {
    pop_root();
    --stale_;
  }
}

inline void EventQueue::take_root(Popped* out) {
  const HeapEntry e = heap_.front();
  pop_root();

  Slot& s = slots_[e.slot];
  s.in_heap = false;
  out->time = e.time;
  out->slot = e.slot;
  out->gen = e.gen;
  out->periodic = !s.period.is_zero();
  out->fn = std::move(s.fn);
  if (!out->periodic) {
    // One-shot: the slot dies with the firing, so outstanding handles
    // report !pending() while the callback runs.
    ++s.gen;
    free_.push_back(e.slot);
  }
}

inline bool EventQueue::pop_next(SimTime deadline, Popped* out) {
  settle_head();
  if (heap_.empty() || heap_.front().time > deadline) return false;
  take_root(out);
  return true;
}

inline void EventQueue::rearm(Popped&& popped) {
  if (!popped.periodic) return;
  if (!slot_matches(popped.slot, popped.gen)) return;  // series cancelled mid-fire
  Slot& s = slots_[popped.slot];
  if (s.in_heap) ++stale_;  // callback rescheduled its own series entry
  s.fn = std::move(popped.fn);
  s.seq = next_seq_++;
  s.in_heap = true;
  push_entry(HeapEntry{popped.time + s.period, s.seq, popped.slot, s.gen});
}

}  // namespace vafs::sim
