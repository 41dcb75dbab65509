// Time-ordered event queue for the discrete-event simulator.
//
// Events are ordered by (timestamp, insertion sequence), which makes
// same-time events FIFO and the whole simulation deterministic.  An event is
// one of three kinds of entry, all stamped from one sequence counter:
//
//   * a callback: a std::function in a pooled slab slot, addressed by a
//     (slot, generation) ticket and cancellable through its Handle;
//   * a timed resumption: a coroutine to resume at a later time; its heap
//     entry carries the frame address itself, so it needs no slot and no
//     std::function;
//   * a due-now resumption, stamped with the current time: it skips the
//     heap and is appended to a FIFO beside it.
//
// Both sources are sorted by (time, sequence): the heap by construction, the
// FIFO because its stamps come from a clock that never runs backwards and a
// counter that only grows.  pop() takes the smaller of the two fronts, so
// every event fires in exactly the order one heap of all of them would give.
// Resumptions cannot be cancelled.
//
// Cancellation is lazy: a cancelled callback leaves a tombstone entry in the
// heap that is skipped on pop, which keeps cancel() O(1).  The flow-level
// network model keeps a single drain event armed at the top of its own drain
// schedule and cancels it only when that top leaves or moves earlier, so its
// tombstones stay few.
//
// Callback slots are recycled through an intrusive free list, and the FIFO is
// a ring that grows only when full, so push/cancel/pop perform no per-event
// heap allocation once the slab, the heap vector and the ring have reached
// their high-water capacity (callbacks with captures small enough for
// std::function's inline buffer stay allocation-free too).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common/units.hpp"

namespace frieda::sim {

/// Min-heap of timestamped events beside a FIFO of due-now resumptions, with
/// stable FIFO ordering at equal times.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// A popped event: the coroutine to resume, or the callback to call.
  struct Event {
    SimTime time = 0.0;
    std::variant<std::coroutine_handle<>, Callback> action;

    /// Resume the coroutine or call the callback.
    void fire() {
      if (auto* h = std::get_if<std::coroutine_handle<>>(&action)) {
        h->resume();
      } else {
        (*std::get_if<Callback>(&action))();
      }
    }
  };

  /// Cancellation handle for a scheduled callback: a (slot, generation) ticket
  /// into the queue's slab.  Default-constructed handles are inert.  Handles
  /// are trivially destructible, so destroying one after the queue is gone is
  /// fine, but pending() must not be called once the queue is destroyed.
  class Handle {
   public:
    Handle() = default;

    /// True when this handle refers to a callback that has neither fired nor
    /// been cancelled.
    bool pending() const;

   private:
    friend class EventQueue;
    Handle(const EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
        : queue_(queue), slot_(slot), gen_(gen) {}
    const EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  /// Schedule `fn` at absolute time `t` (must be >= the last popped time;
  /// enforced by the Simulation wrapper, not here).
  Handle push(SimTime t, Callback fn);

  /// Schedule the resumption of `h` at absolute time `t` (same rule as
  /// push()).  A resumption cannot be cancelled.
  void push_resume(SimTime t, std::coroutine_handle<> h);

  /// Append the resumption of `h` to the due-now FIFO, stamped with `now`.
  /// `now` must not be earlier than the stamp of any earlier due-now push
  /// (the Simulation passes its clock), which keeps the FIFO sorted.
  void push_resume_now(SimTime now, std::coroutine_handle<> h);

  /// Cancel a scheduled callback; no-op if it already fired or was cancelled.
  void cancel(Handle& h);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Timestamp of the next live event.  Requires !empty().
  SimTime next_time() const;

  /// Pop and return the next live event.  Requires !empty().
  Event pop();

  /// Number of live events.  The tombstone design keeps this exact without a
  /// scan: every push increments the count and every fire or cancel
  /// decrements it, while tombstones left in the heap are already excluded.
  std::size_t size() const { return live_; }

  /// Lifetime activity counters (always on: four unconditional integer
  /// increments per event are in the measurement noise of the engine
  /// benchmarks).  The obs layer snapshots these into a MetricsRegistry.
  struct Counters {
    std::uint64_t scheduled = 0;     ///< pushes of every kind
    std::uint64_t cancelled = 0;     ///< effective cancels (pending events)
    std::uint64_t fired = 0;         ///< pop() calls
    std::uint64_t slots_reused = 0;  ///< callback slots recycled via the free list
  };

  /// Lifetime activity so far.
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Slot indices must fit in 31 bits: a callback ticket keeps the tag bit.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 31;
  /// Set in the `what` word of a callback entry; clear in a frame address,
  /// which is at least 2-byte aligned.
  static constexpr std::uint64_t kCallbackTag = 1;

  /// Pooled callback state; recycled via the free list.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;        ///< bumped on fire/cancel to invalidate handles
    std::uint32_t next_free = kNilSlot;
    bool live = false;            ///< scheduled and neither fired nor cancelled
  };
  /// Heap and FIFO entries are value copies of the ordering key plus `what`:
  /// a coroutine frame address, or a callback ticket (generation in the high
  /// word, slot << 1 | kCallbackTag in the low word).  A callback entry whose
  /// generation no longer matches its slot is a tombstone.
  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t what = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static std::uint64_t ticket(std::uint32_t slot, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (std::uint64_t{slot} << 1) | kCallbackTag;
  }
  static std::uint32_t ticket_slot(std::uint64_t what) {
    return static_cast<std::uint32_t>(what) >> 1;
  }
  static std::uint32_t ticket_gen(std::uint64_t what) {
    return static_cast<std::uint32_t>(what >> 32);
  }
  static std::uint64_t frame_word(std::coroutine_handle<> h);
  static std::coroutine_handle<> frame_handle(std::uint64_t what) {
    return std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(static_cast<std::uintptr_t>(what)));
  }
  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].live && slots_[slot].gen == gen;
  }
  bool is_tombstone(const Entry& e) const {
    return (e.what & kCallbackTag) != 0 && !slot_pending(ticket_slot(e.what), ticket_gen(e.what));
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  // Dropping tombstones off the top doesn't change the observable state, so
  // const queries may purge.
  void purge_cancelled_top() const;
  /// True when the FIFO front comes before the (purged) heap top.
  bool due_first() const {
    return due_count_ != 0 && (heap_.empty() || Later{}(heap_.front(), due_[due_head_]));
  }
  void grow_due();

  mutable std::vector<Entry> heap_;  ///< binary heap ordered by Later
  /// Due-now resumptions in push order: a ring over a power-of-two vector.
  std::vector<Entry> due_;
  std::size_t due_head_ = 0;
  std::size_t due_count_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  Counters counters_;

  friend class Handle;
};

inline bool EventQueue::Handle::pending() const {
  return queue_ != nullptr && queue_->slot_pending(slot_, gen_);
}

}  // namespace frieda::sim
