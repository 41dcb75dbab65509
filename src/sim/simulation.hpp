// The simulation kernel: virtual clock, event loop, and process spawning.
//
// A Simulation owns an EventQueue and the root coroutine processes that are
// still suspended.  A root destroys its own frame when it finishes; the
// Simulation links the live ones on an intrusive list (no allocation per
// root) and destroys those still suspended when it goes away.  All wake-ups
// in the system (delays, channel deliveries, signal triggers, spawns) enter
// the event queue as resumptions through resume_in(), so same-time events
// execute in FIFO order and every run is deterministic for a given seed.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace frieda::sim {

/// Discrete-event simulation context.
class Simulation {
 public:
  /// Construct with the seed for the simulation-wide RNG stream.
  explicit Simulation(std::uint64_t seed = 42);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current virtual time in seconds.
  SimTime now() const { return now_; }

  /// Schedule a callback at absolute virtual time `t` (clamped to now()).
  /// Throws FriedaError when `t` is not finite.
  EventQueue::Handle schedule_at(SimTime t, EventQueue::Callback fn);

  /// Schedule a callback `dt` seconds from now (dt clamped to >= 0).
  /// Throws FriedaError when `dt` is +infinity or NaN.
  EventQueue::Handle schedule_in(SimTime dt, EventQueue::Callback fn);

  /// Cancel a previously scheduled callback.
  void cancel(EventQueue::Handle& h);

  /// Resume `h` `dt` seconds from now (dt clamped to >= 0): the one entry
  /// point for every resumption (delays, wakes, spawns).  A resumption due
  /// now joins the queue's due-now FIFO.  Throws FriedaError when `dt` is
  /// +infinity or NaN.
  void resume_in(SimTime dt, std::coroutine_handle<> h);

  /// Spawn a root process.  The task starts at the current time, runs
  /// concurrently with other processes, and is destroyed on completion.
  /// `name` appears in diagnostics; it must outlive the process (a string
  /// literal does).
  void spawn(Task<> task, const char* name = "proc");

  /// Run until the event queue drains or stop() is called.
  /// Rethrows the first exception that escaped a root process.
  void run();

  /// Run events with time <= t, then advance the clock to exactly t.
  /// Returns true if the queue still has pending events after t.
  bool run_until(SimTime t);

  /// Request that run() return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events dispatched so far.
  std::uint64_t events_processed() const { return events_processed_; }

  /// Event-queue activity counters (scheduled/cancelled/fired/pool reuse);
  /// snapshot these into an obs::MetricsRegistry for run reports.
  const EventQueue::Counters& event_counters() const { return queue_.counters(); }

  /// Number of live root processes.
  std::size_t live_processes() const { return live_roots_; }

  /// Simulation-wide RNG (fork() it for per-component streams).
  Rng& rng() { return rng_; }

  /// Awaitable that resumes the current coroutine `dt` seconds later.
  /// delay(0) yields to the event loop (FIFO with same-time events).
  auto delay(SimTime dt) {
    struct DelayAwaiter {
      Simulation& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.resume_in(dt, h); }
      void await_resume() const noexcept {}
    };
    return DelayAwaiter{*this, dt};
  }

 private:
  friend void detail::finish_root(detail::RootLink&, const std::exception_ptr&) noexcept;

  void dispatch_one();

  EventQueue queue_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  Rng rng_;

  detail::RootLink* root_list_ = nullptr;  ///< live roots, newest first
  std::size_t live_roots_ = 0;
  std::exception_ptr first_error_{};
};

}  // namespace frieda::sim
