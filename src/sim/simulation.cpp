#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  // Detach the timers still queued (one-shots free themselves), then destroy
  // the roots still suspended (blocked forever, or cut off by stop() or an
  // exception) while the queue their frames may refer to is alive.
  queue_.clear();
  while (root_list_ != nullptr) {
    detail::RootLink* root = root_list_;
    root_list_ = root->next;
    --live_roots_;
    std::coroutine_handle<Task<>::promise_type>::from_promise(
        static_cast<Task<>::promise_type&>(*root))
        .destroy();
  }
  queue_.clear();  // whatever those frames queued as they went
}

namespace detail {

void finish_root(RootLink& root, const std::exception_ptr& error) noexcept {
  Simulation& sim = *root.sim;
  (root.prev != nullptr ? root.prev->next : sim.root_list_) = root.next;
  if (root.next != nullptr) root.next->prev = root.prev;
  --sim.live_roots_;
  if (error && !sim.first_error_) {
    sim.first_error_ = error;
    FLOG(kError, "sim", "root process '" << root.name << "' terminated with an exception");
    sim.stopped_ = true;
  }
}

}  // namespace detail

void Timer::arm_at(SimTime t) {
  // Every timer enters the queue here, every resumption in resume_in().  An
  // infinite time would park the clock where no delay advances it again.
  FRIEDA_CHECK(std::isfinite(t), "event time must be finite (got " << t << ")");
  sim_.queue_.arm(*this, std::max(t, sim_.now_));
}

void Timer::disarm() { if (armed()) sim_.queue_.disarm(*this); }

Timer::~Timer() { if (entries_ != 0) sim_.queue_.forget(*this); }

void Simulation::resume_in(SimTime dt, std::coroutine_handle<> h) {
  const SimTime t = now_ + std::max(dt, 0.0);
  FRIEDA_CHECK(std::isfinite(t), "event time must be finite (got " << t << ")");
  // Due now (dt <= 0, or a dt too small to move the clock): the heap would
  // place it at (now, next seq) as well, so the FIFO keeps the same order.
  if (t == now_) {
    queue_.push_resume_now(now_, h);
  } else {
    queue_.push_resume(t, h);
  }
}

void Simulation::spawn(Task<> task, const char* name) {
  FRIEDA_CHECK(task.valid(), "spawn of an empty task");
  const auto handle = task.release();
  detail::RootLink& root = handle.promise();
  root.sim = this;
  root.name = name;
  root.next = root_list_;
  if (root_list_ != nullptr) root_list_->prev = &root;
  root_list_ = &root;
  ++live_roots_;
  resume_in(0.0, handle);
}

void Simulation::dispatch_one() {
  auto event = queue_.pop();
  now_ = event.time;
  event.fire();
}

void Simulation::rethrow_first_error() {
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) dispatch_one();
  rethrow_first_error();
}

bool Simulation::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= t) dispatch_one();
  rethrow_first_error();
  now_ = std::max(now_, t);
  return !queue_.empty();
}

}  // namespace frieda::sim
