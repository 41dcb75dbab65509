// Coroutine task type for simulation processes.
//
// sim::Task<T> is a lazily-started coroutine: nothing runs until the task is
// either co_awaited by another task (it then starts immediately via symmetric
// transfer and resumes the awaiter on completion) or spawned as a root
// process on a Simulation (it is then resumed from the event loop).
//
// Ownership: the Task object owns the coroutine frame (RAII).  Awaiting a
// task keeps it alive in the awaiting frame.  Spawning hands the frame to
// itself: a root destroys its own frame when it reaches final suspend, and
// the Simulation destroys the roots still suspended when it goes away.
//
// Exceptions thrown inside a task propagate to the awaiter; exceptions that
// escape a *root* task abort the simulation run() with the stored error.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace frieda::sim {

class Simulation;

namespace detail {

/// The root-process state in every promise: a spawned root is linked on its
/// Simulation's intrusive list of live roots while it is suspended.  `sim`
/// is null for tasks that were never spawned.
struct RootLink {
  Simulation* sim = nullptr;
  const char* name = nullptr;
  RootLink* prev = nullptr;
  RootLink* next = nullptr;
};

/// Called from a root's final suspend, just before its frame is destroyed:
/// unlinks the root and records an escaping exception (simulation.cpp).
void finish_root(RootLink& root, const std::exception_ptr& error) noexcept;

/// Storage + return hook for non-void task results.
template <typename T>
struct TaskPromiseStorage {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
  T take_value() { return std::move(*value); }
};

/// Storage + return hook for void tasks.
template <>
struct TaskPromiseStorage<void> {
  void return_void() {}
  void take_value() {}
};

}  // namespace detail

/// Lazily-started coroutine returning T.  Move-only.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using handle_type = std::coroutine_handle<promise_type>;

  struct promise_type : detail::TaskPromiseStorage<T>, detail::RootLink {
    std::coroutine_handle<> continuation{};
    std::exception_ptr exception{};

    Task get_return_object() { return Task(handle_type::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(handle_type h) noexcept {
        auto& p = h.promise();
        if (p.continuation) return p.continuation;
        if (p.sim != nullptr) {
          detail::finish_root(p, p.exception);
          h.destroy();
        }
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// True when a coroutine frame is attached.
  bool valid() const { return handle_ != nullptr; }

  /// True when the coroutine ran to completion.
  bool done() const { return handle_ && handle_.done(); }

  /// Give up ownership of the frame (Simulation::spawn hands it to itself).
  handle_type release() { return std::exchange(handle_, nullptr); }

  /// Awaiting a task starts it immediately (symmetric transfer) and resumes
  /// the awaiter when it completes, yielding its value or rethrowing.
  auto operator co_await() noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return h.promise().take_value();
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(handle_type h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  handle_type handle_ = nullptr;
};

}  // namespace frieda::sim
