// Unbounded message channel for coroutine processes.
//
// Channel<T> models the communication links of Figures 2–4 in the paper:
// controller→master configuration, worker→master data requests, and
// master→worker work dispatch.  Semantics follow Go channels with close,
// without a capacity:
//
//   * send() never blocks: it hands the value to the oldest blocked
//     receiver or buffers it, and returns false once the channel is closed;
//   * recv() suspends while the buffer is empty and the channel is open;
//   * close() wakes every blocked receiver with nullopt; items already
//     buffered are still delivered.
//
// Blocked receivers wait on the intrusive list of sim/sync.hpp, under its
// lifetime rule; each wake-up is its own event, oldest receiver first.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace frieda::sim {

/// Unbounded, awaitable, closable MPMC channel (any number of tasks may
/// send or receive; ordering among same-time operations is FIFO).
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deliver `value` to the oldest blocked receiver, or buffer it.  Returns
  /// false, dropping the value, once the channel is closed.
  bool send(T value) {
    if (closed_) return false;
    if (auto* receiver = static_cast<RecvAwaiter*>(receivers_.pop())) {
      receiver->value = std::move(value);
      receiver->wake(sim_);
    } else {
      buffer_.push_back(std::move(value));
    }
    return true;
  }

  /// Awaitable receive; resumes with a value, or nullopt once the channel is
  /// closed and drained.
  auto recv() { return RecvAwaiter{*this}; }

  /// Close the channel, waking every blocked receiver with nullopt.
  /// Idempotent.
  void close() {
    closed_ = true;
    receivers_.wake_all(sim_);
  }

 private:
  struct RecvAwaiter : detail::WaitNode {
    explicit RecvAwaiter(Channel& channel) : ch(channel) {}
    Channel& ch;
    std::optional<T> value;

    bool await_ready() {
      if (ch.buffer_.empty()) return ch.closed_;
      value = std::move(ch.buffer_.front());
      ch.buffer_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) noexcept { ch.receivers_.push(*this, h); }
    std::optional<T> await_resume() { return std::move(value); }
  };

  Simulation& sim_;
  bool closed_ = false;
  std::deque<T> buffer_;
  detail::WaitList receivers_;
};

}  // namespace frieda::sim
