#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/timer.hpp"

namespace frieda::sim {
namespace {

/// A timer that logs its label when it fires, and can stop the run there
/// so that Simulation::run() executes exactly one event.
struct LogTimer final : Timer {
  LogTimer(Simulation& simulation, std::vector<int>& out, int id, bool step = false)
      : Timer(simulation), sim(simulation), log(out), label(id), stop(step) {}
  void fire() override {
    log.push_back(label);
    if (stop) sim.stop();
  }
  Simulation& sim;
  std::vector<int>& log;
  int label;
  bool stop;
};

/// Live events, from the queue's counters.
std::uint64_t live(const EventQueue::Counters& c) { return c.scheduled - c.fired - c.cancelled; }
std::uint64_t live(const EventQueue& q) { return live(q.counters()); }
std::uint64_t live(const Simulation& sim) { return live(sim.event_counters()); }

TEST(EventQueue, OrdersByTime) {
  Simulation sim;
  std::vector<int> order;
  LogTimer a(sim, order, 3), b(sim, order, 1), c(sim, order, 2);
  a.arm_at(3.0);
  b.arm_at(1.0);
  c.arm_at(2.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  std::deque<LogTimer> timers;
  for (int i = 0; i < 10; ++i) timers.emplace_back(sim, order, i).arm_at(5.0);
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// Resumptions need real coroutine frames: each one appends its label to a
// log when resumed (and stops `sim`, when given one), then parks at its
// final suspend point.
Task<> log_label(std::vector<int>& log, int label, Simulation* sim) {
  log.push_back(label);
  if (sim != nullptr) sim->stop();
  co_return;
}

/// Owns the released frames of never-spawned tasks.
struct Frames {
  std::vector<std::coroutine_handle<>> all;
  std::coroutine_handle<> make(std::vector<int>& log, int label, Simulation* sim = nullptr) {
    all.push_back(log_label(log, label, sim).release());
    return all.back();
  }
  ~Frames() {
    for (const auto h : all) h.destroy();
  }
};

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  Frames frames;
  std::vector<int> log;
  q.push_resume(4.25, frames.make(log, 0));
  EXPECT_DOUBLE_EQ(q.next_time(), 4.25);
  EXPECT_DOUBLE_EQ(q.pop().time, 4.25);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DisarmSkipsEvent) {
  Simulation sim;
  std::vector<int> log;
  LogTimer a(sim, log, 1), b(sim, log, 2);
  a.arm_at(1.0);
  b.arm_at(2.0);
  EXPECT_TRUE(a.armed());
  a.disarm();
  EXPECT_FALSE(a.armed());
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, DisarmIsIdempotent) {
  Simulation sim;
  std::vector<int> log;
  LogTimer a(sim, log, 1);
  a.arm_at(1.0);
  a.disarm();
  a.disarm();  // no-op
  EXPECT_EQ(sim.event_counters().cancelled, 1u);
  EXPECT_EQ(live(sim), 0u);
  EXPECT_FALSE(sim.run_until(10.0));
  EXPECT_TRUE(log.empty());
}

TEST(EventQueue, DisarmAllLeavesEmpty) {
  Simulation sim;
  std::vector<int> log;
  std::deque<LogTimer> timers;
  for (int i = 0; i < 5; ++i) timers.emplace_back(sim, log, i).arm_at(1.0 * i);
  for (auto& t : timers) t.disarm();
  EXPECT_EQ(live(sim), 0u);
  EXPECT_FALSE(sim.run_until(10.0));
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  Frames frames;
  std::vector<int> log;
  q.push_resume(1.0, frames.make(log, 0));
  q.push_resume_now(0.0, frames.make(log, 1));
  EXPECT_EQ(live(q), 2u);
  q.pop().fire();
  EXPECT_EQ(live(q), 1u);
  EXPECT_FALSE(q.empty());
  // With timers: a re-arm keeps one live event, a disarm removes it.
  Simulation sim;
  LogTimer a(sim, log, 2), b(sim, log, 3);
  a.arm_at(1.0);
  b.arm_at(2.0);
  EXPECT_EQ(live(sim), 2u);
  a.arm_at(3.0);
  EXPECT_EQ(live(sim), 2u);
  a.disarm();
  EXPECT_EQ(live(sim), 1u);
  sim.run();
  EXPECT_EQ(live(sim), 0u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), FriedaError);
  EXPECT_THROW(q.next_time(), FriedaError);
}

TEST(EventQueue, TimerIsDisarmedOnceFiredAndReArms) {
  Simulation sim;
  std::vector<int> log;
  LogTimer a(sim, log, 1);
  a.arm_at(1.0);
  sim.run();
  EXPECT_FALSE(a.armed());
  a.disarm();  // a no-op after the fire
  EXPECT_EQ(sim.event_counters().cancelled, 0u);
  a.arm_at(2.0);
  EXPECT_TRUE(a.armed());
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 1}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(EventQueue, StaleTopIsSkippedByQueries) {
  Simulation sim;
  std::vector<int> log;
  LogTimer a(sim, log, 1), b(sim, log, 2);
  a.arm_at(1.0);
  b.arm_at(2.0);
  a.disarm();  // leaves a stale entry at the heap top
  EXPECT_TRUE(sim.run_until(1.5));
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(live(sim), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, StaleEntryStaysDeadAfterReArm) {
  // Disarming leaves an entry at t = 1 and moving leaves one at t = 5; the
  // timer, armed again at t = 3, must fire there once and nowhere else.
  Simulation sim;
  std::vector<int> log;
  LogTimer a(sim, log, 1);
  a.arm_at(1.0);
  a.disarm();
  a.arm_at(5.0);
  a.arm_at(3.0);
  EXPECT_TRUE(a.armed());
  EXPECT_EQ(live(sim), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_FALSE(a.armed());
}

TEST(EventQueue, TimerChurnKeepsDeterministicOrder) {
  // Heavy arm/disarm churn on one timer (the network's move-the-drain-event
  // pattern) among one-shots: ordering must remain (time, push sequence)
  // FIFO throughout, and no stale entry may fire.
  Simulation sim;
  std::vector<int> order;
  std::vector<int> churn_log;
  LogTimer churn(sim, churn_log, -1);
  for (int round = 0; round < 50; ++round) {
    churn.arm_at(1000.0 - round);
    sim.schedule_at(static_cast<double>(round % 7), [&order, round] { order.push_back(round); });
    churn.disarm();
  }
  std::vector<int> expected;
  for (int round = 0; round < 50; ++round) expected.push_back(round);
  std::stable_sort(expected.begin(), expected.end(),
                   [](int a, int b) { return a % 7 < b % 7; });
  sim.run();
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(churn_log.empty());
  EXPECT_EQ(live(sim), 0u);
}

TEST(EventQueue, TimersAndResumptionsShareOneOrderAndCounters) {
  Simulation sim;
  Frames frames;
  std::vector<int> log;
  LogTimer timer(sim, log, 0);
  timer.arm_at(1.0);
  sim.resume_in(1.0, frames.make(log, 1));
  sim.resume_in(0.0, frames.make(log, 2));
  EXPECT_EQ(live(sim), 3u);
  EXPECT_FALSE(sim.run_until(1.0));
  EXPECT_EQ(log, (std::vector<int>{2, 0, 1}));
  timer.arm_at(2.0);  // the same timer again: no new storage
  sim.resume_in(1.0, frames.make(log, 3));
  sim.resume_in(0.0, frames.make(log, 4));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2, 0, 1, 4, 0, 3}));
  const auto& c = sim.event_counters();
  EXPECT_EQ(c.scheduled, 6u);
  EXPECT_EQ(c.fired, 6u);
  EXPECT_EQ(c.cancelled, 0u);
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
  // Differential test: random mixes of timer arms, re-arms and disarms,
  // one-shots, timed resumptions, due-now resumptions and single-event
  // steps, checked against a reference that sorts every live event by
  // (time, push order).  Every action stops the run, so each run() is one
  // step.
  struct Ref {
    SimTime time;
    int label;  // push order
    bool live;
  };
  constexpr int kTimers = 6;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
    Simulation sim;
    std::vector<int> log;
    std::vector<Ref> ref;
    std::deque<LogTimer> timers;
    std::vector<int> timer_ref(kTimers, -1);  // reference entry of each armed timer
    for (int i = 0; i < kTimers; ++i) timers.emplace_back(sim, log, -1, true);
    Frames frames;
    std::uint64_t expected_live = 0;
    // Pushes outnumber steps early on, then steps drain the queue.
    for (int step = 0; step < 3000 || expected_live > 0; ++step) {
      const int action = step < 3000 ? pick(12) : 11;
      const SimTime dt = 0.5 * pick(4);  // coarse, so times tie often
      const SimTime later = sim.now() + dt;
      const int label = static_cast<int>(ref.size());
      if (action <= 2) {  // arm or re-arm a timer
        const int i = pick(kTimers);
        if (timers[i].armed()) {
          ref[timer_ref[i]].live = false;
          --expected_live;
        }
        timers[i].label = label;
        timers[i].arm_at(later);
        timer_ref[i] = label;
        ref.push_back({later, label, true});
        ++expected_live;
      } else if (action == 3) {  // disarm a timer
        const int i = pick(kTimers);
        if (timers[i].armed()) {
          ref[timer_ref[i]].live = false;
          --expected_live;
        }
        timers[i].disarm();
      } else if (action == 4) {  // a one-shot
        sim.schedule_at(later, [&sim, &log, label] {
          log.push_back(label);
          sim.stop();
        });
        ref.push_back({later, label, true});
        ++expected_live;
      } else if (action <= 6) {  // a resumption, due now when dt == 0
        sim.resume_in(dt, frames.make(log, label, &sim));
        ref.push_back({later, label, true});
        ++expected_live;
      } else if (action <= 8) {  // a due-now resumption
        sim.resume_in(0.0, frames.make(log, label, &sim));
        ref.push_back({sim.now(), label, true});
        ++expected_live;
      } else if (expected_live > 0) {  // one step
        const auto next = std::min_element(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
          return std::make_tuple(!a.live, a.time, a.label) <
                 std::make_tuple(!b.live, b.time, b.label);
        });
        const std::size_t fired_before = log.size();
        sim.run();
        ASSERT_EQ(log.size(), fired_before + 1) << "seed " << seed << " step " << step;
        ASSERT_EQ(log.back(), next->label) << "seed " << seed << " step " << step;
        ASSERT_DOUBLE_EQ(sim.now(), next->time);
        next->live = false;
        --expected_live;
      }
      ASSERT_EQ(live(sim), expected_live) << "seed " << seed << " step " << step;
    }
    const auto& c = sim.event_counters();
    EXPECT_EQ(c.fired, static_cast<std::uint64_t>(log.size()));
    EXPECT_EQ(c.scheduled, c.fired + c.cancelled);
  }
}

// Lifetime: no queue entry may be used after its timer is gone.  These run
// under the sanitizer presets too, which report any such use.

TEST(Timer, OwnerDestroyedWhileArmedLeavesTheRunGoing) {
  Simulation sim;
  std::vector<int> log;
  auto doomed = std::make_unique<LogTimer>(sim, log, 1);
  LogTimer kept(sim, log, 2);
  doomed->arm_at(2.0);
  doomed->arm_at(2.5);  // a stale entry at 2.0 and a live one at 2.5
  kept.arm_at(3.0);
  sim.schedule_at(1.0, [&] { doomed.reset(); });
  sim.schedule_at(4.0, [&] { kept.arm_at(5.0); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  const auto& c = sim.event_counters();
  EXPECT_EQ(c.cancelled, 2u);  // the move and the destruction
  EXPECT_EQ(c.scheduled, c.fired + c.cancelled);
}

TEST(Timer, OwnerDestroyedWithOnlyStaleEntries) {
  Simulation sim;
  std::vector<int> log;
  auto timer = std::make_unique<LogTimer>(sim, log, 1);
  timer->arm_at(5.0);
  timer->arm_at(4.0);
  timer->arm_at(1.0);  // stale entries stay at 4 and 5
  EXPECT_FALSE(sim.run_until(1.0));  // stale entries are not live events
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_FALSE(timer->armed());
  timer.reset();
  LogTimer other(sim, log, 2);
  other.arm_at(6.0);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
}

TEST(Timer, SimulationDestroyedWithOneShotsQueued) {
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  std::vector<int> log;
  std::optional<LogTimer> outlives;  // declared first: destroyed after the Simulation
  {
    Simulation sim;
    outlives.emplace(sim, log, 1);
    outlives->arm_at(2.0);
    sim.schedule_at(1.0, [token] { FAIL() << "one-shot fired"; });
    sim.schedule_in(3.0, [token] { FAIL() << "one-shot fired"; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // the one-shots hold the last copies
  }
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(outlives->armed());
  EXPECT_TRUE(log.empty());
}

Task<> sleep_on_armed_timer(Simulation& sim, Signal& never, std::vector<int>& log) {
  LogTimer timer(sim, log, 1);
  timer.arm_at(10.0);
  co_await never.wait();
}

TEST(Timer, SuspendedFrameWithArmedTimerIsDestroyedWithItsSimulation) {
  std::vector<int> log;
  {
    Simulation sim;
    Signal never(sim);
    sim.spawn(sleep_on_armed_timer(sim, never, log));
    EXPECT_TRUE(sim.run_until(1.0));
    EXPECT_EQ(sim.live_processes(), 1u);
  }
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace frieda::sim
