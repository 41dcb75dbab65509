// Owner-embedded timers: the one kind of callback the event queue holds.  A
// Timer lives in the object it serves (a compute slice, a disk's completion,
// the network's drain event, a VM's boot) and acts through its fire()
// override; arm_at() queues or moves it and disarm() takes it out, without
// allocating (see event_queue.hpp).
//
// Lifetime: the Simulation must outlive every timer armed on it.  A timer
// destroyed while queue entries name it removes them (a heap scan, on that
// cold path only); a Simulation destroyed first detaches every timer still
// queued, so destroying those timers afterwards touches nothing.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace frieda::sim {

class EventQueue;
class Simulation;

/// A re-armable, cancellable event whose action is fire().  The queue holds
/// its address, so it is neither copied nor moved.
class Timer {
 public:
  explicit Timer(Simulation& sim) : sim_(sim) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire at absolute virtual time `t` (clamped to now()), replacing an
  /// earlier arm.  Throws FriedaError when `t` is not finite.
  void arm_at(SimTime t);

  /// Take the timer out of the queue; a no-op when it is not armed.
  void disarm();

  /// True from an arm until the fire or disarm that ends it.
  bool armed() const { return seq_ != kDisarmed; }

 protected:
  ~Timer();

 private:
  friend class EventQueue;
  static constexpr std::uint64_t kDisarmed = ~std::uint64_t{0};

  /// The action.  The timer is disarmed by then, so fire() may re-arm it.
  virtual void fire() = 0;
  /// Called when the Simulation is destroyed with this timer armed.
  virtual void abandon() {}

  Simulation& sim_;
  std::uint64_t seq_ = kDisarmed;  ///< sequence number of the live entry
  std::uint32_t entries_ = 0;      ///< queue entries naming this timer, live or stale
};

/// A timer that calls `(owner.*Method)()` when it fires.
template <typename Owner, void (Owner::*Method)()>
struct MemberTimer final : Timer {
  MemberTimer(Simulation& sim, Owner& o) : Timer(sim), owner(o) {}
  void fire() override { (owner.*Method)(); }
  Owner& owner;
};

}  // namespace frieda::sim
