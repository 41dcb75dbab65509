// Time-ordered event queue for the discrete-event simulator.
//
// Events are ordered by (timestamp, insertion sequence), which makes
// same-time events FIFO and the whole simulation deterministic.  Cancellation
// is lazy: a cancelled event leaves a tombstone entry in the heap that is
// skipped on pop, which keeps cancel() O(1).  The flow-level network model
// keeps a single drain event armed at the top of its own drain schedule and
// cancels it only when that top leaves or moves earlier, so its tombstones
// stay few.
//
// Storage is a slab of pooled event slots addressed by (index, generation)
// handles.  Slots are recycled through an intrusive free list, so push/
// cancel/pop perform no per-event heap allocation once the slab and the heap
// vector have reached their high-water capacity (callbacks with captures
// small enough for std::function's inline buffer stay allocation-free too).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace frieda::sim {

/// Min-heap of timestamped callbacks with stable FIFO ordering at equal times.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Cancellation handle for a scheduled event: a (slot, generation) ticket
  /// into the queue's slab.  Default-constructed handles are inert.  Handles
  /// are trivially destructible, so destroying one after the queue is gone is
  /// fine, but pending() must not be called once the queue is destroyed.
  class Handle {
   public:
    Handle() = default;

    /// True when this handle refers to an event that has neither fired nor
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

  /// Cancel a scheduled event; no-op if it already fired or was cancelled.
  void cancel(Handle& h);

  /// True when no live (non-cancelled) events remain.
  bool empty() const;

  /// Timestamp of the next live event.  Requires !empty().
  SimTime next_time() const;

  /// Pop and return the next live event's (time, callback).
  /// Requires !empty().
  std::pair<SimTime, Callback> pop();

  /// Number of live events.  The tombstone design keeps this exact without a
  /// scan: every push increments the count and every fire or cancel
  /// decrements it, while tombstones left in the heap are already excluded.
  std::size_t size() const { return live_; }

  /// Lifetime activity counters (always on: four unconditional integer
  /// increments per event are in the measurement noise of the engine
  /// benchmarks).  The obs layer snapshots these into a MetricsRegistry.
  struct Counters {
    std::uint64_t scheduled = 0;     ///< push() calls
    std::uint64_t cancelled = 0;     ///< effective cancels (pending events)
    std::uint64_t fired = 0;         ///< pop() calls
    std::uint64_t slots_reused = 0;  ///< slab slots recycled via the free list
  };

  /// Lifetime activity so far.
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Pooled event state; recycled via the free list.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;        ///< bumped on fire/cancel to invalidate handles
    std::uint32_t next_free = kNilSlot;
    bool live = false;            ///< scheduled and neither fired nor cancelled
  };
  /// Heap entries are value copies of the ordering key plus the slab ticket;
  /// an entry whose generation no longer matches its slot is a tombstone.
  struct HeapEntry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].live && slots_[slot].gen == gen;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  // Dropping tombstones off the top doesn't change the observable state, so
  // const queries may purge.
  void purge_cancelled_top() const;

  mutable std::vector<HeapEntry> heap_;  ///< binary heap ordered by Later
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
