#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace frieda::sim {
namespace {

TEST(Signal, WakesAllWaiters) {
  Simulation sim;
  Signal sig(sim);
  std::vector<double> wake_times;
  auto waiter = [&]() -> Task<> {
    co_await sig.wait();
    wake_times.push_back(sim.now());
  };
  sim.spawn(waiter());
  sim.spawn(waiter());
  sim.spawn([](Simulation& s, Signal& sg) -> Task<> {
    co_await s.delay(2.5);
    sg.trigger();
  }(sim, sig));
  sim.run();
  EXPECT_EQ(wake_times, (std::vector<double>{2.5, 2.5}));
  EXPECT_TRUE(sig.triggered());
}

TEST(Signal, WakesWaitersOldestFirst) {
  // Each waiter is resumed by its own zero-delay event, in the order the
  // waiters suspended, after the triggering task's own step.
  Simulation sim;
  Signal sig(sim);
  std::vector<int> order;
  auto waiter = [&](int id, double arrive) -> Task<> {
    co_await sim.delay(arrive);
    co_await sig.wait();
    order.push_back(id);
  };
  sim.spawn(waiter(1, 0.5));
  sim.spawn(waiter(2, 0.1));
  sim.spawn(waiter(3, 0.3));
  auto trigger = [&]() -> Task<> {
    co_await sim.delay(1.0);
    sig.trigger();
    order.push_back(0);
  };
  sim.spawn(trigger());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
}

TEST(WaitGroup, WakesEveryWaiterOldestFirstEachTimeItDrains) {
  Simulation sim;
  WaitGroup wg(sim);
  std::vector<int> order;
  auto waiter = [&](int id, double arrive) -> Task<> {
    co_await sim.delay(arrive);
    co_await wg.wait();
    order.push_back(id);
  };
  wg.add(1);
  sim.spawn(waiter(1, 0.2));
  sim.spawn(waiter(2, 0.1));
  auto drain_twice = [&]() -> Task<> {
    co_await sim.delay(1.0);
    wg.done();
    wg.add(1);  // waiters that arrive from now on wait for the next drain
    co_await sim.delay(1.0);
    wg.done();
  };
  sim.spawn(drain_twice());
  sim.spawn(waiter(3, 1.5));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Signal, WaitAfterTriggerIsImmediate) {
  Simulation sim;
  Signal sig(sim);
  sig.trigger();
  sig.trigger();  // idempotent
  double when = -1.0;
  sim.spawn([](Simulation& s, Signal& sg, double& t) -> Task<> {
    co_await s.delay(1.0);
    co_await sg.wait();
    t = s.now();
  }(sim, sig, when));
  sim.run();
  EXPECT_DOUBLE_EQ(when, 1.0);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int concurrent = 0, peak = 0, completed = 0;
  auto job = [&]() -> Task<> {
    co_await sem.acquire();
    ++concurrent;
    peak = std::max(peak, concurrent);
    co_await sim.delay(1.0);
    --concurrent;
    ++completed;
    sem.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(job());
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(completed, 6);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // 6 jobs / 2 permits * 1 s
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, FifoHandoff) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto job = [&](int id, double arrive) -> Task<> {
    co_await sim.delay(arrive);
    co_await sem.acquire();
    order.push_back(id);
    co_await sim.delay(10.0);
    sem.release();
  };
  sim.spawn(job(1, 0.0));
  sim.spawn(job(2, 1.0));
  sim.spawn(job(3, 2.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Semaphore, NegativePermitsThrow) {
  Simulation sim;
  EXPECT_THROW(Semaphore(sim, -1), FriedaError);
}

TEST(WaitGroup, WaitsForAll) {
  Simulation sim;
  WaitGroup wg(sim);
  double done_time = -1.0;
  wg.add(3);
  for (int i = 1; i <= 3; ++i) {
    sim.spawn([](Simulation& s, WaitGroup& w, double d) -> Task<> {
      co_await s.delay(d);
      w.done();
    }(sim, wg, static_cast<double>(i)));
  }
  sim.spawn([](Simulation& s, WaitGroup& w, double& t) -> Task<> {
    co_await w.wait();
    t = s.now();
  }(sim, wg, done_time));
  sim.run();
  EXPECT_DOUBLE_EQ(done_time, 3.0);
  EXPECT_EQ(wg.count(), 0);
}

TEST(WaitGroup, WaitOnZeroImmediate) {
  Simulation sim;
  WaitGroup wg(sim);
  bool ran = false;
  sim.spawn([](WaitGroup& w, bool& r) -> Task<> {
    co_await w.wait();
    r = true;
  }(wg, ran));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(WaitGroup, DoneBelowZeroThrows) {
  Simulation sim;
  WaitGroup wg(sim);
  EXPECT_THROW(wg.done(), FriedaError);
  EXPECT_THROW(wg.add(-1), FriedaError);
}

}  // namespace
}  // namespace frieda::sim
