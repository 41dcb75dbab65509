#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() = default;

EventQueue::Handle Simulation::schedule_at(SimTime t, EventQueue::Callback fn) {
  // Every event enters the queue here.  An infinite time would move the clock
  // to infinity, where no delay advances it again.
  FRIEDA_CHECK(std::isfinite(t), "event time must be finite (got " << t << ")");
  return queue_.push(std::max(t, now_), std::move(fn));
}

EventQueue::Handle Simulation::schedule_in(SimTime dt, EventQueue::Callback fn) {
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

void Simulation::cancel(EventQueue::Handle& h) { queue_.cancel(h); }

void Simulation::spawn(Task<> task, std::string name) {
  FRIEDA_CHECK(task.valid(), "spawn of an empty task");
  const std::uint64_t id = next_root_id_++;
  auto [it, inserted] = roots_.emplace(id, Root{std::move(task), std::move(name)});
  FRIEDA_CHECK(inserted, "duplicate root id");
  auto handle = it->second.task.handle();
  handle.promise().on_done = [this, id] { finished_roots_.push_back(id); };
  schedule_in(0.0, [handle] {
    if (!handle.done()) handle.resume();
  });
}

void Simulation::dispatch_one() {
  auto [t, fn] = queue_.pop();
  now_ = t;
  ++events_processed_;
  fn();
  collect_finished_roots();
}

void Simulation::collect_finished_roots() {
  while (!finished_roots_.empty()) {
    const std::uint64_t id = finished_roots_.back();
    finished_roots_.pop_back();
    auto it = roots_.find(id);
    if (it == roots_.end()) continue;
    auto& promise = it->second.task.handle().promise();
    if (promise.exception && !first_error_) {
      first_error_ = promise.exception;
      FLOG(kError, "sim", "root process '" << it->second.name << "' terminated with an exception");
      stopped_ = true;
    }
    roots_.erase(it);
  }
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) dispatch_one();
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool Simulation::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= t) dispatch_one();
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  now_ = std::max(now_, t);
  return !queue_.empty();
}

}  // namespace frieda::sim
