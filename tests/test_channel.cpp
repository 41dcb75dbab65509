#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace frieda::sim {
namespace {

TEST(Channel, BufferedSendRecv) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(c.send(i));
      co_await s.delay(1.0);
    }
    c.close();
  }(sim, ch));
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    while (true) {
      auto v = co_await c.recv();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Channel, RecvBlocksUntilSend) {
  Simulation sim;
  Channel<std::string> ch(sim);
  double recv_time = -1.0;
  sim.spawn([](Simulation& s, Channel<std::string>& c, double& t) -> Task<> {
    auto v = co_await c.recv();
    EXPECT_EQ(*v, "hello");
    t = s.now();
  }(sim, ch, recv_time));
  sim.spawn([](Simulation& s, Channel<std::string>& c) -> Task<> {
    co_await s.delay(5.0);
    c.send("hello");
  }(sim, ch));
  sim.run();
  EXPECT_DOUBLE_EQ(recv_time, 5.0);
}

TEST(Channel, MultipleReceiversFifo) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (receiver id, value)
  auto receiver = [&](int id) -> Task<> {
    auto v = co_await ch.recv();
    got.emplace_back(id, *v);
  };
  sim.spawn(receiver(1));
  sim.spawn(receiver(2));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<> {
    co_await s.delay(1.0);  // both receivers are blocked by now
    c.send(100);
    c.send(200);
  }(sim, ch));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  // Oldest waiter gets the first value.
  EXPECT_EQ(got[0], (std::pair<int, int>{1, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{2, 200}));
}

TEST(Channel, SendAfterCloseFailsButBufferDrains) {
  Simulation sim;
  Channel<int> ch(sim);
  EXPECT_TRUE(ch.send(7));
  ch.close();
  ch.close();  // idempotent
  EXPECT_FALSE(ch.send(8));
  std::vector<std::optional<int>> got;
  sim.spawn([](Channel<int>& c, std::vector<std::optional<int>>& out) -> Task<> {
    out.push_back(co_await c.recv());
    out.push_back(co_await c.recv());
  }(ch, got));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::optional<int>(7));
  EXPECT_EQ(got[1], std::nullopt);
}

TEST(Channel, CloseWakesBlockedReceivers) {
  Simulation sim;
  Channel<int> ch(sim);
  int woke = 0;
  auto receiver = [&]() -> Task<> {
    auto v = co_await ch.recv();
    EXPECT_FALSE(v.has_value());
    ++woke;
  };
  sim.spawn(receiver());
  sim.spawn(receiver());
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<> {
    co_await s.delay(1.0);
    c.close();
  }(sim, ch));
  sim.run();
  EXPECT_EQ(woke, 2);
}

TEST(Channel, ManyProducersOneConsumer) {
  Simulation sim;
  Channel<int> ch(sim);
  int total = 0;
  for (int p = 0; p < 5; ++p) {
    sim.spawn([](Simulation& s, Channel<int>& c, int id) -> Task<> {
      for (int i = 0; i < 10; ++i) {
        co_await s.delay(0.1 * (id + 1));
        c.send(1);
      }
    }(sim, ch, p));
  }
  sim.spawn([](Channel<int>& c, int& sum) -> Task<> {
    for (int i = 0; i < 50; ++i) {
      auto v = co_await c.recv();
      sum += *v;
    }
  }(ch, total));
  sim.run();
  EXPECT_EQ(total, 50);
}

}  // namespace
}  // namespace frieda::sim
