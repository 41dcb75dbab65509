// Time-ordered event queue for the discrete-event simulator.
//
// Events fire in (timestamp, insertion sequence) order, which makes same-time
// events FIFO and the whole simulation deterministic.  An entry is one of two
// kinds, both stamped from one sequence counter: a coroutine resumption,
// named by its frame address, or a Timer (timer.hpp), named by its address
// under a tag bit.  A timer keeps the sequence number of its last arm, so an
// entry left in the heap by a re-arm or disarm is stale, and is dropped when
// it reaches the top.  A resumption due now skips the heap for a FIFO beside
// it: its stamps come from a clock that never runs backwards and a counter
// that only grows, so pop() takes the smaller of the two fronts and every
// event fires in exactly the order one heap of all of them would give.  Once
// the heap and the FIFO ring have reached their high-water capacity, no
// operation allocates.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/timer.hpp"

namespace frieda::sim {

/// Min-heap of timestamped resumptions and timers beside a FIFO of due-now
/// resumptions, with stable FIFO ordering at equal times.
class EventQueue {
 public:
  /// A popped event: the coroutine to resume or the timer to fire.
  struct Event {
    SimTime time = 0.0;
    std::uint64_t what = 0;  ///< a frame address, or a timer's under kTimerTag

    /// Resume the coroutine or fire the timer.
    void fire() const {
      if (Timer* timer = timer_of(what)) {
        timer->fire();
      } else {
        std::coroutine_handle<>::from_address(reinterpret_cast<void*>(what)).resume();
      }
    }
  };

  /// Queue `timer` at absolute time `t`, which must not precede the last
  /// popped time (Timer::arm_at clamps it).  An earlier arm goes stale.
  void arm(Timer& timer, SimTime t);

  /// Disarm an armed timer; its entry goes stale.
  void disarm(Timer& timer);

  /// Disarm `timer` and remove every entry naming it: it is being destroyed.
  void forget(Timer& timer);

  /// Drop every entry, telling each armed timer through Timer::abandon()
  /// (the Simulation is going away).
  void clear();

  /// Schedule the resumption of `h` at absolute time `t` (same rule as
  /// arm()).  A resumption cannot be cancelled.
  void push_resume(SimTime t, std::coroutine_handle<> h);

  /// Append the resumption of `h` to the due-now FIFO, stamped with `now`,
  /// which must not precede any earlier due-now stamp (the Simulation passes
  /// its clock).
  void push_resume_now(SimTime now, std::coroutine_handle<> h);

  /// True when no live (armed or resumable) events remain.
  bool empty() const { return live_ == 0; }

  /// Timestamp of the next live event.  Requires !empty().
  SimTime next_time() const;

  /// Pop and return the next live event.  Requires !empty().
  Event pop();

  /// Lifetime activity counters (always on: three unconditional integer
  /// increments per event are in the measurement noise of the engine
  /// benchmarks).  The obs layer snapshots these into a MetricsRegistry.
  struct Counters {
    std::uint64_t scheduled = 0;  ///< arms and resumptions
    std::uint64_t cancelled = 0;  ///< disarms and moves of an armed timer
    std::uint64_t fired = 0;      ///< pop() calls
  };

  /// Lifetime activity so far.
  const Counters& counters() const { return counters_; }

 private:
  /// Set in the `what` word of a timer entry; clear in a frame address,
  /// which is at least 2-byte aligned.
  static constexpr std::uint64_t kTimerTag = 1;

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

  static Timer* timer_of(std::uint64_t what) {
    return (what & kTimerTag) != 0
               ? reinterpret_cast<Timer*>(static_cast<std::uintptr_t>(what & ~kTimerTag))
               : nullptr;
  }
  static std::uint64_t frame_word(std::coroutine_handle<> h);
  static std::uint64_t timer_word(Timer& t) {
    return reinterpret_cast<std::uintptr_t>(&t) | kTimerTag;
  }
  void push_heap(const Entry& e);
  // Dropping stale entries off the top doesn't change the observable state,
  // so const queries may purge.
  void purge_stale_top() const;
  /// True when the FIFO front comes before the (purged) heap top.
  bool due_first() const {
    return due_count_ != 0 && (heap_.empty() || Later{}(heap_.front(), due_[due_head_]));
  }
  void grow_due();

  mutable std::vector<Entry> heap_;  ///< binary heap ordered by Later
  std::vector<Entry> due_;  ///< due-now resumptions: a ring over a power-of-two vector
  std::size_t due_head_ = 0;
  std::size_t due_count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  ///< armed timers and pending resumptions
  Counters counters_;
};

}  // namespace frieda::sim
