// Coroutine synchronization primitives for the simulator.
//
// All wake-ups go through the simulation's event queue (never direct
// resumption inside the notifier), which bounds stack depth and keeps
// same-time ordering deterministic and FIFO.
//
// Lifetime rule: primitives must outlive every task suspended on them.  In
// practice they live in scenario objects that outlive Simulation::run().
//
// Waiter storage: every primitive in src/sim (Signal, Semaphore, WaitGroup
// and Channel) keeps its suspended waiters in an intrusive FIFO
// (detail::WaitList) whose nodes are the awaiters themselves, which live in
// the waiting coroutine's frame for as long as it is suspended.  Waiting and
// waking allocate nothing.  Wake order is FIFO: every waiter is resumed by
// its own due-now resumption (Simulation::resume_in(0.0, ...), which joins
// the event queue's due-now FIFO), oldest first.  No destructor walks
// the list.  A Simulation destroys the frames still suspended when it goes
// away, nodes included; nothing may trigger, release, send to or close a
// primitive after that, since its wake-ups would go to that Simulation.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/simulation.hpp"

namespace frieda::sim {

namespace detail {

/// One suspended waiter; the awaiter object itself, in the waiting frame.
/// Its list holds its address, so it is never copied or moved.
struct WaitNode {
  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;

  /// Schedule this waiter's resumption as its own due-now event.
  void wake(Simulation& sim) const { sim.resume_in(0.0, handle); }

  std::coroutine_handle<> handle;
  WaitNode* next = nullptr;
};

/// Intrusive FIFO of suspended waiters.  Allocates nothing.
class WaitList {
 public:
  /// Append a waiter suspending on `h`.
  void push(WaitNode& node, std::coroutine_handle<> h) {
    node.handle = h;
    node.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &node;
    } else {
      head_ = &node;
    }
    tail_ = &node;
  }

  /// Unlink and return the oldest waiter, or nullptr when the list is empty.
  WaitNode* pop() {
    WaitNode* node = head_;
    if (node != nullptr) {
      head_ = node->next;
      if (head_ == nullptr) tail_ = nullptr;
    }
    return node;
  }

  /// Empty the list, scheduling each waiter's resumption oldest first.
  void wake_all(Simulation& sim) {
    while (WaitNode* node = pop()) node->wake(sim);
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
};

}  // namespace detail

/// One-shot broadcast signal: tasks wait() until some task calls trigger().
/// Waiting on an already-triggered signal completes immediately.
class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(sim) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// True once trigger() has been called.
  bool triggered() const { return triggered_; }

  /// Fire the signal, waking all current waiters; idempotent.
  void trigger();

  /// Awaitable; resumes when the signal has been triggered.
  auto wait() {
    struct Awaiter : detail::WaitNode {
      explicit Awaiter(Signal& signal) : s(signal) {}
      Signal& s;
      bool await_ready() const noexcept { return s.triggered_; }
      void await_suspend(std::coroutine_handle<> h) noexcept { s.waiters_.push(*this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  bool triggered_ = false;
  detail::WaitList waiters_;
};

/// Counting semaphore with FIFO handoff semantics: release() wakes the
/// longest-waiting acquirer directly instead of incrementing the count, so
/// no later arrival can overtake it.
class Semaphore {
 public:
  /// Construct with the initial number of available permits.
  Semaphore(Simulation& sim, std::int64_t permits);
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Currently available permits.
  std::int64_t available() const { return permits_; }

  /// Awaitable; resumes once a permit has been granted to this task.
  auto acquire() {
    struct Awaiter : detail::WaitNode {
      explicit Awaiter(Semaphore& semaphore) : s(semaphore) {}
      Semaphore& s;
      bool await_ready() const noexcept {
        if (s.permits_ > 0) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) noexcept { s.waiters_.push(*this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Return a permit; hands it to the oldest waiter if any.
  void release();

 private:
  Simulation& sim_;
  std::int64_t permits_;
  detail::WaitList waiters_;
};

/// Completion counter: add(n) registers pending work, done() retires one
/// unit, wait() resumes once the count reaches zero.  The count may grow
/// again after reaching zero; wait() observes the instantaneous state.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Register `n` additional units of pending work.
  void add(std::int64_t n = 1);

  /// Retire one unit; wakes waiters when the count reaches zero.
  void done();

  /// Outstanding count.
  std::int64_t count() const { return count_; }

  /// Awaitable; resumes when the count is zero.
  auto wait() {
    struct Awaiter : detail::WaitNode {
      explicit Awaiter(WaitGroup& group) : wg(group) {}
      WaitGroup& wg;
      bool await_ready() const noexcept { return wg.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) noexcept { wg.waiters_.push(*this, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  std::int64_t count_ = 0;
  detail::WaitList waiters_;
};

}  // namespace frieda::sim
