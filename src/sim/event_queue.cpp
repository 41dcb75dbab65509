#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace frieda::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    ++counters_.slots_reused;
    return slot;
  }
  FRIEDA_CHECK(slots_.size() < kMaxSlots, "event queue slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.gen;  // invalidates outstanding handles and heap tombstones
  s.next_free = free_head_;
  free_head_ = slot;
}

std::uint64_t EventQueue::frame_word(std::coroutine_handle<> h) {
  const auto word = reinterpret_cast<std::uintptr_t>(h.address());
  FRIEDA_CHECK(word != 0 && (word & kCallbackTag) == 0, "cannot schedule the resumption of "
                                                        "an empty or unaligned coroutine handle");
  return word;
}

EventQueue::Handle EventQueue::push(SimTime t, Callback fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  heap_.push_back(Entry{t, next_seq_++, ticket(slot, s.gen)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  ++counters_.scheduled;
  return Handle(this, slot, s.gen);
}

void EventQueue::push_resume(SimTime t, std::coroutine_handle<> h) {
  heap_.push_back(Entry{t, next_seq_++, frame_word(h)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  ++counters_.scheduled;
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

void EventQueue::cancel(Handle& h) {
  if (h.queue_ == this && slot_pending(h.slot_, h.gen_)) {
    slots_[h.slot_].fn = nullptr;  // release captured state eagerly
    release_slot(h.slot_);         // heap entry becomes a tombstone
    --live_;
    ++counters_.cancelled;
  }
  h.queue_ = nullptr;
}

void EventQueue::purge_cancelled_top() const {
  while (!heap_.empty() && is_tombstone(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  FRIEDA_CHECK(!empty(), "next_time() on empty event queue");
  purge_cancelled_top();
  return due_first() ? due_[due_head_].time : heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  FRIEDA_CHECK(!empty(), "pop() on empty event queue");
  purge_cancelled_top();
  --live_;
  ++counters_.fired;
  if (due_first()) {
    const Entry front = due_[due_head_];
    due_head_ = (due_head_ + 1) & (due_.size() - 1);
    --due_count_;
    return Event{front.time, frame_handle(front.what)};
  }
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  if ((top.what & kCallbackTag) == 0) {
    return Event{top.time, frame_handle(top.what)};
  }
  const std::uint32_t slot = ticket_slot(top.what);
  Callback fn = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  release_slot(slot);
  return Event{top.time, std::move(fn)};
}

}  // namespace frieda::sim
