#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <random>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "sim/task.hpp"

namespace frieda::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.push(4.25, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.25);
  EXPECT_DOUBLE_EQ(q.pop().time, 4.25);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(1.0, [&] { ++fired; });
  q.push(2.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  q.cancel(h);
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.cancel(h);
  q.cancel(h);  // no-op
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  std::vector<EventQueue::Handle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(q.push(1.0 * i, [] {}));
  for (auto& h : handles) q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.push(1.0, [] {});
  auto b = q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  (void)b;
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), FriedaError);
  EXPECT_THROW(q.next_time(), FriedaError);
}

TEST(EventQueue, HandleOutlivesFiredEvent) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.pop().fire();
  EXPECT_FALSE(h.pending());
  q.cancel(h);  // safe after fire
}

TEST(EventQueue, ConstQueriesWork) {
  EventQueue q;
  auto a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(a);  // leaves a tombstone at the heap top
  const EventQueue& cq = q;
  EXPECT_FALSE(cq.empty());
  EXPECT_DOUBLE_EQ(cq.next_time(), 2.0);
  EXPECT_EQ(cq.size(), 1u);
}

TEST(EventQueue, StaleHandleStaysDeadAfterSlotReuse) {
  // Cancelling frees the pooled slot; a later push recycles it with a new
  // generation, so the old handle must not resurrect.
  EventQueue q;
  auto old = q.push(1.0, [] {});
  q.cancel(old);
  auto fresh = q.push(3.0, [] {});  // reuses the freed slot
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  q.cancel(old);  // must not cancel the recycled event
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_FALSE(fresh.pending());
}

TEST(EventQueue, SlabChurnKeepsDeterministicOrder) {
  // Heavy push/cancel/pop churn (the network's cancel-and-reschedule
  // pattern): ordering must remain (time, push sequence) FIFO throughout.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::Handle> cancelled;
  for (int round = 0; round < 50; ++round) {
    cancelled.push_back(q.push(1000.0, [] { FAIL() << "cancelled event fired"; }));
    q.push(static_cast<double>(round % 7), [&order, round] { order.push_back(round); });
    q.cancel(cancelled.back());
  }
  std::vector<int> expected;
  for (int round = 0; round < 50; ++round) expected.push_back(round);
  std::stable_sort(expected.begin(), expected.end(),
                   [](int a, int b) { return a % 7 < b % 7; });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(q.size(), 0u);
}

// Resumptions need real coroutine frames: each one appends its label to a
// log when resumed, then parks at its final suspend point.
Task<> log_label(std::vector<int>& log, int label) {
  log.push_back(label);
  co_return;
}

/// Owns the released frames of never-spawned tasks.
struct Frames {
  std::vector<std::coroutine_handle<>> all;
  std::coroutine_handle<> make(std::vector<int>& log, int label) {
    all.push_back(log_label(log, label).release());
    return all.back();
  }
  ~Frames() {
    for (const auto h : all) h.destroy();
  }
};

TEST(EventQueue, ResumptionsTakeNoSlot) {
  EventQueue q;
  Frames frames;
  std::vector<int> log;
  q.push(1.0, [&] { log.push_back(0); });
  q.push_resume(1.0, frames.make(log, 1));
  q.push_resume_now(0.0, frames.make(log, 2));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.0);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(log, (std::vector<int>{2, 0, 1}));
  q.push(2.0, [] {});  // recycles the one callback slot
  q.push_resume(2.0, frames.make(log, 3));
  q.push_resume_now(1.0, frames.make(log, 4));
  while (!q.empty()) q.pop().fire();
  const auto& c = q.counters();
  EXPECT_EQ(c.scheduled, 6u);
  EXPECT_EQ(c.fired, 6u);
  EXPECT_EQ(c.slots_reused, 1u);
}

TEST(EventQueue, DueNowFifoKeepsOrderAcrossWrapAndGrowth) {
  // Pop part of the ring so it wraps, then outgrow it while wrapped.
  EventQueue q;
  Frames frames;
  std::vector<int> log;
  int label = 0;
  for (; label < 12; ++label) q.push_resume_now(0.0, frames.make(log, label));
  for (int i = 0; i < 8; ++i) q.pop().fire();
  for (; label < 60; ++label) q.push_resume_now(0.0, frames.make(log, label));
  while (!q.empty()) q.pop().fire();
  std::vector<int> expected(60);
  for (int i = 0; i < 60; ++i) expected[i] = i;
  EXPECT_EQ(log, expected);
}

TEST(EventQueue, MixedKindsPopInReferenceOrder) {
  // Differential test: random mixes of callbacks, timed resumptions,
  // due-now resumptions, cancels and pops, checked against a reference
  // that sorts every live event by (time, push order).
  enum class Kind { kCallback, kTimed, kDueNow };
  struct Ref {
    SimTime time;
    int label;  // push order
    Kind kind;
    bool live;
    EventQueue::Handle handle;
  };
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
    EventQueue q;
    Frames frames;
    std::vector<int> log;
    std::vector<Ref> ref;
    SimTime now = 0.0;
    std::size_t live = 0;
    // Pushes outnumber pops early on, then pops drain the queue.
    for (int step = 0; step < 3000 || live > 0; ++step) {
      const int action = step < 3000 ? pick(10) : 9;
      const SimTime later = now + 0.5 * pick(4);  // coarse, so times tie often
      const int label = static_cast<int>(ref.size());
      if (action <= 1) {
        auto h = q.push(later, [&log, label] { log.push_back(label); });
        ref.push_back({later, label, Kind::kCallback, true, h});
        ++live;
      } else if (action <= 3) {
        q.push_resume(later, frames.make(log, label));
        ref.push_back({later, label, Kind::kTimed, true, {}});
        ++live;
      } else if (action <= 5) {
        q.push_resume_now(now, frames.make(log, label));
        ref.push_back({now, label, Kind::kDueNow, true, {}});
        ++live;
      } else if (action == 6 && !ref.empty()) {
        Ref& victim = ref[pick(static_cast<int>(ref.size()))];
        if (victim.kind == Kind::kCallback && victim.live) {
          q.cancel(victim.handle);
          victim.live = false;
          --live;
        }
      } else if (live > 0) {
        const auto next = std::min_element(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
          return std::make_tuple(!a.live, a.time, a.label) <
                 std::make_tuple(!b.live, b.time, b.label);
        });
        ASSERT_DOUBLE_EQ(q.next_time(), next->time) << "seed " << seed << " step " << step;
        auto event = q.pop();
        ASSERT_DOUBLE_EQ(event.time, next->time);
        event.fire();
        ASSERT_FALSE(log.empty());
        ASSERT_EQ(log.back(), next->label) << "seed " << seed << " step " << step;
        next->live = false;
        --live;
        now = event.time;
      }
      ASSERT_EQ(q.size(), live);
    }
    EXPECT_TRUE(q.empty());
    const auto fired = static_cast<std::uint64_t>(log.size());
    EXPECT_EQ(q.counters().fired, fired);
    EXPECT_EQ(q.counters().scheduled, fired + q.counters().cancelled);
  }
}

}  // namespace
}  // namespace frieda::sim
