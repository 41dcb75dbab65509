#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/sync.hpp"
#include "sim/timer.hpp"

namespace frieda::sim {
namespace {

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(2.0, [&] { times.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  double observed = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 7.5);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  double observed = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { observed = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 10.0);
}

TEST(Simulation, NonFiniteTimesAreRejected) {
  // An infinite time would park the clock at infinity, where delays stop
  // advancing it; a NaN would slip through the clamp to now().
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Simulation sim;
  int fired = 0;
  for (const double t : {kInf, -kInf, kNan}) {
    EXPECT_THROW(sim.schedule_at(t, [&] { ++fired; }), FriedaError) << t;
  }
  for (const double dt : {kInf, kNan}) {
    EXPECT_THROW(sim.schedule_in(dt, [&] { ++fired; }), FriedaError) << dt;
  }
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(3.0, [&] { ++fired; });
  const bool more = sim.run_until(2.0);
  EXPECT_TRUE(more);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

Task<> count_down(Simulation& sim, int n, std::vector<double>& ticks) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(1.0);
    ticks.push_back(sim.now());
  }
}

TEST(Simulation, SpawnedProcessDelays) {
  Simulation sim;
  std::vector<double> ticks;
  sim.spawn(count_down(sim, 3, ticks), "counter");
  EXPECT_EQ(sim.live_processes(), 1u);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.live_processes(), 0u);  // root reclaimed
}

TEST(Simulation, ProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::pair<int, double>> log;
  auto proc = [&](int id, double period) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await sim.delay(period);
      log.emplace_back(id, sim.now());
    }
  };
  sim.spawn(proc(1, 1.0));
  sim.spawn(proc(2, 1.5));
  sim.run();
  // At t=3.0 both wake; process 2 scheduled its wake-up earlier (at t=1.5,
  // vs. t=2.0 for process 1), so FIFO order puts it first.
  const std::vector<std::pair<int, double>> expected{
      {1, 1.0}, {2, 1.5}, {1, 2.0}, {2, 3.0}, {1, 3.0}, {2, 4.5}};
  EXPECT_EQ(log, expected);
}

Task<int> triple(Simulation& sim, int x) {
  co_await sim.delay(1.0);
  co_return 3 * x;
}

Task<> parent(Simulation& sim, int& out) {
  out = co_await triple(sim, 7);
}

TEST(Simulation, NestedTaskReturnsValue) {
  Simulation sim;
  int out = 0;
  sim.spawn(parent(sim, out));
  sim.run();
  EXPECT_EQ(out, 21);
}

Task<> thrower(Simulation& sim) {
  co_await sim.delay(1.0);
  throw std::runtime_error("boom");
}

TEST(Simulation, RootExceptionPropagatesFromRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task<> catcher(Simulation& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Simulation, ChildExceptionCatchableInParent) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, DeterministicEventCountAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<double> ticks;
    sim.spawn(count_down(sim, 10, ticks));
    sim.spawn(count_down(sim, 5, ticks));
    sim.run();
    return std::make_pair(sim.events_processed(), ticks);
  };
  const auto a = run_once(1);
  const auto b = run_once(1);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Simulation, SpawnEmptyTaskThrows) {
  Simulation sim;
  EXPECT_THROW(sim.spawn(Task<>{}), FriedaError);
}

// Counts its own destruction; a local of a root frame shows when (and how
// often) that frame is destroyed.
struct FrameGuard {
  int& destroyed;
  ~FrameGuard() { ++destroyed; }
};

Task<> blocked_forever(Signal& never, int& destroyed) {
  FrameGuard guard{destroyed};
  co_await never.wait();
}

TEST(Simulation, BlockedRootIsDestroyedOnceAtTeardown) {
  int destroyed = 0;
  {
    Simulation sim;
    Signal never(sim);
    sim.spawn(blocked_forever(never, destroyed), "blocked");
    sim.run();
    EXPECT_EQ(sim.live_processes(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Simulation, ThrowingRootStopsRunAndSparesOtherRoots) {
  int destroyed = 0;
  bool later_event_fired = false;
  {
    Simulation sim;
    Signal never(sim);
    sim.spawn(blocked_forever(never, destroyed), "blocked");
    sim.spawn(thrower(sim), "thrower");
    sim.schedule_at(2.0, [&] { later_event_fired = true; });
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
    EXPECT_FALSE(later_event_fired);
    EXPECT_EQ(sim.live_processes(), 1u);  // the thrower is gone, the other waits
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Simulation, LiveProcessesCountDownAsRootsFinish) {
  Simulation sim;
  std::vector<double> ticks;
  for (int n = 1; n <= 3; ++n) sim.spawn(count_down(sim, n, ticks));
  EXPECT_EQ(sim.live_processes(), 3u);
  sim.run_until(1.5);
  EXPECT_EQ(sim.live_processes(), 2u);
  sim.run_until(2.5);
  EXPECT_EQ(sim.live_processes(), 1u);
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(ticks.size(), 6u);
}

TEST(Simulation, DelayZeroYields) {
  Simulation sim;
  std::vector<int> order;
  auto yielder = [&](int id) -> Task<> {
    order.push_back(id * 10);
    co_await sim.delay(0.0);
    order.push_back(id * 10 + 1);
  };
  sim.spawn(yielder(1));
  sim.spawn(yielder(2));
  sim.run();
  // Both prologues run before either epilogue: delay(0) really yields.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
}

// Same-time events fire in push order whatever their kind: callbacks,
// due-now wakes and timed delays share one (time, push sequence) order.

TEST(Simulation, DelayZeroWakeKeepsPushOrderAmongCallbacks) {
  Simulation sim;
  std::vector<std::string> order;
  // Both roots wake at t = 2 in spawn order.  The first pushes callback A
  // and then its own delay(0) wake; the second then pushes callback C.
  auto first = [&]() -> Task<> {
    co_await sim.delay(2.0);
    sim.schedule_in(0.0, [&] { order.push_back("A"); });
    co_await sim.delay(0.0);
    order.push_back("wake@" + std::to_string(sim.now()));
  };
  auto second = [&]() -> Task<> {
    co_await sim.delay(2.0);
    sim.schedule_in(0.0, [&] { order.push_back("C"); });
  };
  sim.spawn(first());
  sim.spawn(second());
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "wake@" + std::to_string(2.0), "C"}));
}

TEST(Simulation, SignalWakeKeepsPushOrderAmongCallbacks) {
  Simulation sim;
  Signal signal(sim);
  std::vector<std::string> order;
  auto waiter = [&](std::string name) -> Task<> {
    co_await signal.wait();
    order.push_back(name);
  };
  sim.spawn(waiter("w1"));
  sim.spawn(waiter("w2"));
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(0.0, [&] { order.push_back("before"); });
    signal.trigger();  // w1 then w2, each its own event
    sim.schedule_in(0.0, [&] { order.push_back("after"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "w1", "w2", "after"}));
}

TEST(Simulation, TimedDelayKeepsPushOrderAtItsLandingTime) {
  Simulation sim;
  std::vector<std::string> order;
  // Three events at t = 0 push, in this order: a callback at 5, a delay
  // landing at 5, another callback at 5.
  sim.schedule_at(0.0, [&] { sim.schedule_at(5.0, [&] { order.push_back("before"); }); });
  auto sleeper = [&]() -> Task<> {
    co_await sim.delay(5.0);
    order.push_back("delay");
  };
  sim.spawn(sleeper());
  sim.schedule_at(0.0, [&] { sim.schedule_at(5.0, [&] { order.push_back("after"); }); });
  // Pushed first but at an earlier time, so it still leads.
  sim.schedule_at(4.5, [&] { order.push_back("earlier"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"earlier", "before", "delay", "after"}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

/// A timer that appends its name to a log when it fires.
struct NamedTimer final : Timer {
  NamedTimer(Simulation& sim, std::vector<std::string>& out, std::string id)
      : Timer(sim), log(out), name(std::move(id)) {}
  void fire() override { log.push_back(name); }
  std::vector<std::string>& log;
  std::string name;
};

TEST(Simulation, ReArmedTimerTakesANewPlaceAmongSameTimeEvents) {
  // A timer moved to a time takes the place of a fresh push there: after
  // every event already due then, before every event pushed later.
  Simulation sim;
  Signal signal(sim);
  std::vector<std::string> order;
  NamedTimer moved(sim, order, "R");
  auto sleeper = [&]() -> Task<> {
    co_await sim.delay(5.0);  // pushed at t = 0: first at t = 5
    order.push_back("delay");
    // Move R once more, at its own time, then wake W and push P2.
    moved.arm_at(5.0);
    signal.trigger();
    sim.schedule_in(0.0, [&] { order.push_back("P2"); });
  };
  auto waiter = [&]() -> Task<> {
    co_await signal.wait();
    order.push_back("W");
  };
  sim.spawn(sleeper());
  sim.spawn(waiter());
  sim.schedule_at(1.0, [&] {
    moved.arm_at(5.0);
    sim.schedule_at(5.0, [&] { order.push_back("P"); });
  });
  sim.schedule_at(2.0, [&] { moved.arm_at(5.0); });  // behind P: same time, new place
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"delay", "P", "R", "W", "P2"}));
  // Each move of the armed timer counts as a cancel and a schedule.
  const auto& c = sim.event_counters();
  EXPECT_EQ(c.scheduled, 11u);
  EXPECT_EQ(c.cancelled, 2u);
  EXPECT_EQ(c.fired, 9u);
}

TEST(Simulation, RunUntilDrainsDueNowWakes) {
  Simulation sim;
  Signal signal(sim);
  std::vector<double> woke;
  auto waiter = [&]() -> Task<> {
    co_await signal.wait();
    woke.push_back(sim.now());
    co_await sim.delay(0.0);  // a second due-now wake at the same time
    woke.push_back(sim.now());
  };
  sim.spawn(waiter());
  sim.spawn(waiter());
  sim.schedule_at(3.0, [&] { signal.trigger(); });
  int late = 0;
  sim.schedule_at(10.0, [&] { ++late; });
  EXPECT_TRUE(sim.run_until(3.0));
  EXPECT_EQ(woke, (std::vector<double>{3.0, 3.0, 3.0, 3.0}));
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(late, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_FALSE(sim.run_until(10.0));
  EXPECT_EQ(late, 1);
}

TEST(Simulation, NonFiniteDelayThrowsIntoTheAwaitingTask) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Simulation sim;
  int caught = 0;
  auto sleeper = [&](double dt) -> Task<> {
    try {
      co_await sim.delay(dt);
    } catch (const FriedaError&) {
      ++caught;
    }
    co_await sim.delay(1.0);  // the task goes on after the rejected delay
  };
  sim.spawn(sleeper(kInf));
  sim.spawn(sleeper(kNan));
  sim.run();
  EXPECT_EQ(caught, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.live_processes(), 0u);
}

}  // namespace
}  // namespace frieda::sim
