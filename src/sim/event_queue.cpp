#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace frieda::sim {

std::uint64_t EventQueue::frame_word(std::coroutine_handle<> h) {
  const auto word = reinterpret_cast<std::uintptr_t>(h.address());
  FRIEDA_CHECK(word != 0 && (word & kTimerTag) == 0, "cannot schedule the resumption of "
                                                     "an empty or unaligned coroutine handle");
  return word;
}

void EventQueue::push_heap(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  ++counters_.scheduled;
}

void EventQueue::arm(Timer& timer, SimTime t) {
  if (timer.armed()) disarm(timer);
  push_heap(Entry{t, next_seq_, timer_word(timer)});
  timer.seq_ = next_seq_++;
  ++timer.entries_;
}

void EventQueue::disarm(Timer& timer) {
  timer.seq_ = Timer::kDisarmed;
  --live_;
  ++counters_.cancelled;
}

void EventQueue::forget(Timer& timer) {
  if (timer.armed()) disarm(timer);
  const std::uint64_t word = timer_word(timer);
  std::erase_if(heap_, [word](const Entry& e) { return e.what == word; });
  // (time, seq) is a strict order, so any valid heap pops the same sequence.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  timer.entries_ = 0;
}

void EventQueue::clear() {
  while (!empty()) {
    if (Timer* timer = timer_of(pop().what)) timer->abandon();
  }
  purge_stale_top();  // only stale entries are left: drop them all
}

void EventQueue::push_resume(SimTime t, std::coroutine_handle<> h) {
  push_heap(Entry{t, next_seq_++, frame_word(h)});
}

void EventQueue::push_resume_now(SimTime now, std::coroutine_handle<> h) {
  if (due_count_ == due_.size()) grow_due();
  due_[(due_head_ + due_count_) & (due_.size() - 1)] = Entry{now, next_seq_++, frame_word(h)};
  ++due_count_;
  ++live_;
  ++counters_.scheduled;
}

void EventQueue::grow_due() {
  // Unwrap into a ring twice the size; the capacity stays a power of two.
  std::vector<Entry> bigger(std::max<std::size_t>(16, 2 * due_.size()));
  for (std::size_t i = 0; i < due_count_; ++i) {
    bigger[i] = due_[(due_head_ + i) & (due_.size() - 1)];
  }
  due_.swap(bigger);
  due_head_ = 0;
}

void EventQueue::purge_stale_top() const {
  while (!heap_.empty()) {
    Timer* timer = timer_of(heap_.front().what);
    if (timer == nullptr || timer->seq_ == heap_.front().seq) return;
    --timer->entries_;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  FRIEDA_CHECK(!empty(), "next_time() on empty event queue");
  purge_stale_top();
  return due_first() ? due_[due_head_].time : heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  FRIEDA_CHECK(!empty(), "pop() on empty event queue");
  purge_stale_top();
  --live_;
  ++counters_.fired;
  if (due_first()) {
    const Entry front = due_[due_head_];
    due_head_ = (due_head_ + 1) & (due_.size() - 1);
    --due_count_;
    return Event{front.time, front.what};
  }
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  if (Timer* timer = timer_of(top.what)) {
    --timer->entries_;
    timer->seq_ = Timer::kDisarmed;
  }
  return Event{top.time, top.what};
}

}  // namespace frieda::sim
