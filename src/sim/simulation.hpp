// The simulation kernel: virtual clock, event loop, and process spawning.
//
// A Simulation owns an EventQueue and the root coroutine processes that are
// still suspended.  A root destroys its own frame when it finishes; the
// Simulation links the live ones on an intrusive list (no allocation per
// root) and destroys those still suspended when it goes away.  An event is a
// resumption through resume_in() (delays, channel deliveries, signal
// triggers, spawns) or a Timer armed by its owner (timer.hpp); schedule_at()
// is a timer that owns itself.  Same-time events execute in push order, so
// every run is deterministic for a given seed.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/timer.hpp"

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

  /// Call `fn()` once at absolute virtual time `t` (clamped to now()); it
  /// cannot be cancelled.  Throws FriedaError when `t` is not finite.
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    auto shot = std::make_unique<OneShot<std::decay_t<F>>>(*this, std::forward<F>(fn));
    shot->arm_at(t);
    shot.release();  // the queue's entry owns it now
  }

  /// Call `fn()` `dt` seconds from now (dt clamped to >= 0), once.
  /// Throws FriedaError when `dt` is +infinity or NaN.
  template <typename F>
  void schedule_in(SimTime dt, F&& fn) {
    schedule_at(now_ + std::max(dt, 0.0), std::forward<F>(fn));
  }

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
  std::uint64_t events_processed() const { return queue_.counters().fired; }

  /// Event-queue activity counters (scheduled/cancelled/fired);
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
  friend class Timer;

  /// The timer behind schedule_at(): it owns the callable and frees itself
  /// once fired, or when the Simulation goes away first.
  template <typename F>
  struct OneShot final : Timer {
    OneShot(Simulation& sim, F f) : Timer(sim), fn(std::move(f)) {}
    void fire() override {
      const std::unique_ptr<OneShot> self(this);
      fn();
    }
    void abandon() override { delete this; }
    F fn;
  };

  void dispatch_one();
  void rethrow_first_error();

  EventQueue queue_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  Rng rng_;

  detail::RootLink* root_list_ = nullptr;  ///< live roots, newest first
  std::size_t live_roots_ = 0;
  std::exception_ptr first_error_{};
};

}  // namespace frieda::sim
