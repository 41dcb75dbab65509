// The simulation kernel: virtual clock, event loop, and process spawning.
//
// A Simulation owns an EventQueue and a registry of root coroutine processes.
// All wake-ups in the system (delays, channel deliveries, signal triggers)
// are funneled through the event queue, so same-time events execute in FIFO
// order and every run is deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

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

  /// Spawn a root process.  The task starts at the current time, runs
  /// concurrently with other processes, and is destroyed on completion.
  /// `name` appears in diagnostics.
  void spawn(Task<> task, std::string name = "proc");

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
  std::size_t live_processes() const { return roots_.size(); }

  /// Simulation-wide RNG (fork() it for per-component streams).
  Rng& rng() { return rng_; }

  /// Awaitable that resumes the current coroutine `dt` seconds later.
  /// delay(0) yields to the event loop (FIFO with same-time events).
  auto delay(SimTime dt) {
    struct DelayAwaiter {
      Simulation& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_in(dt, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return DelayAwaiter{*this, dt};
  }

 private:
  void dispatch_one();
  void collect_finished_roots();

  EventQueue queue_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  Rng rng_;

  struct Root {
    Task<> task;
    std::string name;
  };
  std::uint64_t next_root_id_ = 0;
  std::unordered_map<std::uint64_t, Root> roots_;
  std::vector<std::uint64_t> finished_roots_;
  std::exception_ptr first_error_{};
};

}  // namespace frieda::sim
