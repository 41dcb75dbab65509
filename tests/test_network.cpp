#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/topology.hpp"

namespace frieda::net {
namespace {

Topology star(std::size_t nodes, Bandwidth nic) {
  Topology t;
  for (std::size_t i = 0; i < nodes; ++i) {
    t.add_node("n" + std::to_string(i), nic, nic);
  }
  return t;
}

TEST(Topology, Basics) {
  Topology t;
  const auto a = t.add_node("a", mbps(100), mbps(200));
  const auto b = t.add_node("b", mbps(50), mbps(50));
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.name(a), "a");
  EXPECT_DOUBLE_EQ(t.egress(a), mbps(100));
  EXPECT_DOUBLE_EQ(t.ingress(a), mbps(200));
  t.set_nic(a, mbps(10), mbps(10));
  EXPECT_DOUBLE_EQ(t.egress(a), mbps(10));
  t.set_pair_limit(a, b, mbps(5));
  EXPECT_DOUBLE_EQ(t.pair_limit(a, b), mbps(5));
  EXPECT_TRUE(std::isinf(t.pair_limit(b, a)));
  EXPECT_FALSE(t.has_backbone_cap());
  t.set_backbone_capacity(gbps(1));
  EXPECT_TRUE(t.has_backbone_cap());
  EXPECT_THROW(t.name(99), FriedaError);
  EXPECT_THROW(t.add_node("bad", 0.0, 1.0), FriedaError);
}

TEST(Topology, CapacitiesMustBeFiniteAndPositive) {
  // An infinite NIC used to be accepted: a transfer between two such nodes
  // had no finite bottleneck, solved to rate 0 and silently never finished.
  constexpr Bandwidth kInf = std::numeric_limits<Bandwidth>::infinity();
  Topology t;
  EXPECT_THROW(t.add_node("inf", kInf, kInf), FriedaError);
  EXPECT_THROW(t.add_node("half", mbps(100), kInf), FriedaError);
  EXPECT_THROW(t.add_node("nan", std::nan(""), mbps(100)), FriedaError);
  const auto a = t.add_node("a", mbps(100), mbps(100));
  EXPECT_THROW(t.set_nic(a, kInf, mbps(100)), FriedaError);
  EXPECT_THROW(t.set_nic(a, mbps(100), -1.0), FriedaError);
  EXPECT_DOUBLE_EQ(t.egress(a), mbps(100));
  EXPECT_THROW(t.set_backbone_capacity(0.0), FriedaError);
  t.set_backbone_capacity(kInf);  // +infinity means no cap
  EXPECT_FALSE(t.has_backbone_cap());

  sim::Simulation sim;
  EXPECT_THROW({ Network n(sim, star(2, mbps(100)), 0.0, kInf); }, FriedaError);
  EXPECT_THROW({ Network n(sim, star(2, mbps(100)), 0.0, 0.0); }, FriedaError);
}

TEST(Network, SingleTransferTakesBytesOverRate) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), /*latency=*/0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 125 * MB);  // 125 MB @ 12.5 MB/s = 10 s
  }(netw, result));
  sim.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.transferred, 125 * MB);
  EXPECT_NEAR(result.duration(), 10.0, 1e-6);
  EXPECT_EQ(netw.total_bytes_moved(), 125 * MB);
  EXPECT_EQ(netw.traffic(0).bytes_sent, 125 * MB);
  EXPECT_EQ(netw.traffic(1).bytes_received, 125 * MB);
}

TEST(Network, LatencyAddsToTransferTime) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), /*latency=*/0.5);
  double finished = 0.0;
  sim.spawn([](Network& n, double& t, sim::Simulation& s) -> sim::Task<> {
    (void)co_await n.transfer(0, 1, 125 * MB);
    t = s.now();
  }(netw, finished, sim));
  sim.run();
  EXPECT_NEAR(finished, 10.5, 1e-6);
}

TEST(Network, TwoFlowsShareSourceEgress) {
  sim::Simulation sim;
  Network netw(sim, star(3, mbps(100)), 0.0);
  std::vector<double> durations(2);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Network& n, double& d, int dst) -> sim::Task<> {
      const auto r = co_await n.transfer(0, static_cast<NodeId>(dst), 125 * MB);
      d = r.duration();
    }(netw, durations[i], i + 1));
  }
  sim.run();
  // Both share node 0's 12.5 MB/s egress: each takes ~20 s.
  EXPECT_NEAR(durations[0], 20.0, 1e-6);
  EXPECT_NEAR(durations[1], 20.0, 1e-6);
}

TEST(Network, FlowSpeedsUpWhenCompetitorFinishes) {
  sim::Simulation sim;
  Network netw(sim, star(3, mbps(100)), 0.0);
  double long_duration = 0.0;
  // Short flow: 62.5 MB; long flow: 187.5 MB, both from node 0.
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    const auto r = co_await n.transfer(0, 1, 1875 * MB / 10);
    d = r.duration();
  }(netw, long_duration));
  sim.spawn([](Network& n) -> sim::Task<> {
    (void)co_await n.transfer(0, 2, 625 * MB / 10);
  }(netw));
  sim.run();
  // Phase 1: both at 6.25 MB/s until the short flow finishes at t=10
  // (62.5 MB / 6.25).  Long flow then has 125 MB left at 12.5 MB/s => +10 s.
  EXPECT_NEAR(long_duration, 20.0, 1e-6);
}

TEST(Network, DestinationIngressBottleneck) {
  sim::Simulation sim;
  Topology t = star(3, mbps(1000));
  t.set_nic(2, mbps(1000), mbps(100));  // slow receiver
  Network netw(sim, std::move(t), 0.0);
  std::vector<double> durations(2);
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(0, 2, 125 * MB)).duration();
  }(netw, durations[0]));
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(1, 2, 125 * MB)).duration();
  }(netw, durations[1]));
  sim.run();
  EXPECT_NEAR(durations[0], 20.0, 1e-6);
  EXPECT_NEAR(durations[1], 20.0, 1e-6);
}

TEST(Network, PairLimitCapsFlow) {
  sim::Simulation sim;
  Topology t = star(2, mbps(1000));
  t.set_pair_limit(0, 1, mbps(100));
  Network netw(sim, std::move(t), 0.0);
  double duration = 0.0;
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(0, 1, 125 * MB)).duration();
  }(netw, duration));
  sim.run();
  EXPECT_NEAR(duration, 10.0, 1e-6);
}

TEST(Network, PairLimitKeyNeverCollidesWithOtherResources) {
  // Past 65,536 nodes a pair limit on 65536 -> 0 must stay its own resource:
  // a narrower key space once mapped it onto the backbone, so the class
  // listed one resource twice and ran at half the pair limit.
  sim::Simulation sim;
  Topology t = star(65537, gbps(1));
  t.set_backbone_capacity(gbps(10));
  t.set_pair_limit(65536, 0, mbps(10));
  Network netw(sim, std::move(t), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(65536, 0, 10 * MB);  // 10 MB @ 1.25 MB/s = 8 s
  }(netw, result));
  sim.run();
  EXPECT_TRUE(result.ok());
  EXPECT_NEAR(result.duration(), 8.0, 1e-6);
}

TEST(Network, BackboneCapSharedByAllFlows) {
  sim::Simulation sim;
  Topology t = star(4, mbps(1000));
  t.set_backbone_capacity(mbps(100));
  Network netw(sim, std::move(t), 0.0);
  std::vector<double> durations(2);
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(0, 1, 125 * MB)).duration();
  }(netw, durations[0]));
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(2, 3, 125 * MB)).duration();
  }(netw, durations[1]));
  sim.run();
  EXPECT_NEAR(durations[0], 20.0, 1e-6);  // 6.25 MB/s each on the backbone
  EXPECT_NEAR(durations[1], 20.0, 1e-6);
}

TEST(Network, LoopbackBypassesNic) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), 0.0, /*loopback=*/gbps(10));
  double duration = -1.0;
  sim.spawn([](Network& n, double& d) -> sim::Task<> {
    d = (co_await n.transfer(0, 0, 125 * MB)).duration();
  }(netw, duration));
  sim.run();
  EXPECT_NEAR(duration, 0.1, 1e-6);  // 125 MB @ 1.25 GB/s
}

TEST(Network, ZeroByteTransferCompletesImmediately) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 0);
  }(netw, result));
  sim.run();
  EXPECT_TRUE(result.ok());
  EXPECT_NEAR(result.duration(), 0.0, 1e-12);
}

TEST(Network, FailNodeAbortsItsFlows) {
  sim::Simulation sim;
  Network netw(sim, star(3, mbps(100)), 0.0);
  TransferResult to_failed, unaffected;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 1250 * MB);  // would take 200 s alone
  }(netw, to_failed));
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 2, 1250 * MB);
  }(netw, unaffected));
  sim.schedule_at(50.0, [&] { netw.fail_node(1); });
  sim.run();
  EXPECT_EQ(to_failed.status, TransferStatus::kFailed);
  EXPECT_NEAR(to_failed.finished, 50.0, 1e-6);
  // 50 s at 6.25 MB/s = 312.5 MB moved before the abort.
  EXPECT_NEAR(static_cast<double>(to_failed.transferred), 312.5e6, 1e3);
  EXPECT_TRUE(unaffected.ok());
  // Competitor then gets the full 12.5 MB/s: 312.5 MB at 6.25 + 937.5 MB at
  // 12.5 => 50 + 75 = 125 s total.
  EXPECT_NEAR(unaffected.duration(), 125.0, 1e-6);
}

TEST(Network, TransferToFailedNodeFailsImmediately) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), 0.0);
  netw.fail_node(1);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, MB);
  }(netw, result));
  sim.run();
  EXPECT_EQ(result.status, TransferStatus::kFailed);
  EXPECT_EQ(result.transferred, 0u);
  netw.restore_node(1);
  EXPECT_FALSE(netw.node_failed(1));
}

TEST(Network, ObserverSeesCompletedTransfers) {
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), 0.0);
  int observed = 0;
  netw.set_observer([&](NodeId src, NodeId dst, const TransferResult& r) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(dst, 1u);
    EXPECT_TRUE(r.ok());
    ++observed;
  });
  sim.spawn([](Network& n) -> sim::Task<> {
    (void)co_await n.transfer(0, 1, MB);
    (void)co_await n.transfer(0, 1, MB);
  }(netw));
  sim.run();
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(netw.transfers_started(), 2u);
}

TEST(Network, ObserverSeesEarlyFailures) {
  // Failure before setup and failure during setup must both report through
  // the observer and the accounting, just like failures after streams start.
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), /*latency=*/0.5);
  int observed_failures = 0;
  netw.set_observer([&](NodeId src, NodeId dst, const TransferResult& r) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(dst, 1u);
    EXPECT_EQ(r.status, TransferStatus::kFailed);
    EXPECT_EQ(r.transferred, 0u);
    ++observed_failures;
  });

  netw.fail_node(1);
  TransferResult at_start;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, MB);  // endpoint already dead
  }(netw, at_start));
  sim.run();
  EXPECT_EQ(observed_failures, 1);
  EXPECT_NEAR(at_start.duration(), 0.0, 1e-12);

  netw.restore_node(1);
  TransferResult during_setup;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, MB);
  }(netw, during_setup));
  sim.schedule_in(0.25, [&] { netw.fail_node(1); });  // mid connection setup
  sim.run();
  EXPECT_EQ(observed_failures, 2);
  EXPECT_EQ(during_setup.status, TransferStatus::kFailed);
  EXPECT_EQ(during_setup.transferred, 0u);

  EXPECT_EQ(netw.transfers_started(), 2u);
  EXPECT_EQ(netw.total_bytes_moved(), 0u);
  EXPECT_EQ(netw.traffic(0).bytes_sent, 0u);
  EXPECT_EQ(netw.traffic(1).bytes_received, 0u);
}

TEST(Network, StreamsOfOnePairCoalesceIntoOneClass) {
  sim::Simulation sim;
  Network netw(sim, star(3, mbps(100)), 0.0);
  for (NodeId dst = 1; dst <= 2; ++dst) {
    sim.spawn([](Network& n, NodeId d) -> sim::Task<> {
      (void)co_await n.transfer(0, d, 10 * MB, /*streams=*/4);
    }(netw, dst));
  }
  sim.run_until(0.1);  // both transfers in flight
  EXPECT_EQ(netw.active_flows(), 8u);       // 2 transfers x 4 streams
  EXPECT_EQ(netw.active_flow_classes(), 2u);  // but only 2 (src,dst) classes
  sim.run();
  EXPECT_EQ(netw.total_bytes_moved(), 20 * MB);
}

TEST(Network, NicChangeAppliesToCachedConstraints) {
  // set_nic bumps the topology version, which must invalidate the cached
  // per-class constraint vectors and take effect on the next recompute.
  sim::Simulation sim;
  Network netw(sim, star(2, mbps(100)), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 125 * MB);  // 10 s at 100 Mbps
  }(netw, result));
  sim.schedule_at(5.0, [&] {
    netw.topology().set_nic(0, mbps(50), mbps(50));
    netw.fail_node(1);  // force an immediate recompute...
    netw.restore_node(1);
  });
  sim.run();
  // This transfer dies at t=5 (fail_node aborts it); what matters here is
  // that a follow-up transfer sees the new 50 Mbps NIC from its cached class.
  EXPECT_EQ(result.status, TransferStatus::kFailed);
  TransferResult second;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 125 * MB);  // 20 s at 50 Mbps
  }(netw, second));
  sim.run();
  EXPECT_TRUE(second.ok());
  EXPECT_NEAR(second.duration(), 20.0, 1e-6);
}

TEST(Network, ManyConcurrentFlowsConserveBytes) {
  sim::Simulation sim;
  Network netw(sim, star(5, mbps(100)), 0.0);
  const Bytes each = 10 * MB;
  int completed = 0;
  for (NodeId dst = 1; dst < 5; ++dst) {
    for (int k = 0; k < 3; ++k) {
      sim.spawn([](Network& n, NodeId d, Bytes b, int& done) -> sim::Task<> {
        const auto r = co_await n.transfer(0, d, b);
        EXPECT_TRUE(r.ok());
        done += 1;
      }(netw, dst, each, completed));
    }
  }
  sim.run();
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(netw.total_bytes_moved(), 12 * each);
  // All 12 flows share node 0's egress: total time = 120 MB / 12.5 MB/s.
  EXPECT_NEAR(sim.now(), 9.6, 1e-6);
}

TEST(Topology, RackAssignmentAndUplinks) {
  Topology t;
  const auto a = t.add_node("a", gbps(1), gbps(1));
  const auto b = t.add_node("b", gbps(1), gbps(1));
  EXPECT_EQ(t.rack(a), kNoRack);
  EXPECT_FALSE(t.has_rack_uplinks());
  EXPECT_TRUE(std::isinf(t.rack_uplink(kNoRack)));
  const auto before = t.version();
  t.set_rack(a, 0);
  t.set_rack(b, 1);
  t.set_rack_uplink(0, mbps(500));
  EXPECT_GT(t.version(), before);  // rack changes invalidate cached classes
  EXPECT_EQ(t.rack(a), 0u);
  EXPECT_TRUE(t.has_rack_uplinks());
  EXPECT_DOUBLE_EQ(t.rack_uplink(0), mbps(500));
  EXPECT_TRUE(std::isinf(t.rack_uplink(1)));  // assigned but uncapped
  EXPECT_THROW(t.set_rack_uplink(kNoRack, mbps(1)), FriedaError);
  EXPECT_THROW(t.set_rack_uplink(0, 0.0), FriedaError);
}

TEST(Network, RackUplinkSharedByCrossRackFlows) {
  // Two nodes in rack 0 send to two nodes in rack 1.  NICs are fat; each
  // flow crosses both 100 Mbps uplinks, so the pair of flows shares one
  // uplink's capacity: 12.5 MB total at 6.25 MB/s each = 10 s.
  Topology t = star(4, gbps(1));
  t.set_rack(0, 0);
  t.set_rack(1, 0);
  t.set_rack(2, 1);
  t.set_rack(3, 1);
  t.set_rack_uplink(0, mbps(100));
  t.set_rack_uplink(1, mbps(100));
  sim::Simulation sim;
  Network netw(sim, std::move(t), 0.0);
  std::vector<TransferResult> results(2);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Network& n, TransferResult& out, NodeId src, NodeId dst) -> sim::Task<> {
      out = co_await n.transfer(src, dst, Bytes(62.5 * MB));
    }(netw, results[i], NodeId(i), NodeId(2 + i)));
  }
  sim.run();
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_NEAR(r.duration(), 10.0, 1e-6);
  }
}

TEST(Network, IntraRackFlowBypassesUplink) {
  Topology t = star(3, mbps(100));
  t.set_rack(0, 0);
  t.set_rack(1, 0);
  t.set_rack(2, 1);  // unrelated rack so has_rack_uplinks() is on
  t.set_rack_uplink(0, mbps(10));  // would be the bottleneck if traversed
  sim::Simulation sim;
  Network netw(sim, std::move(t), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 125 * MB);
  }(netw, result));
  sim.run();
  // Full NIC rate: the top-of-rack uplink only carries traffic leaving the
  // rack, so the narrow 10 Mbps trunk must not throttle this flow.
  EXPECT_NEAR(result.duration(), 10.0, 1e-6);
}

TEST(Network, UnrackedEndpointTraversesOnlyTheRackedSide) {
  Topology t = star(2, gbps(1));
  t.set_rack(1, 0);
  t.set_rack_uplink(0, mbps(100));
  sim::Simulation sim;
  Network netw(sim, std::move(t), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 125 * MB);  // core switch -> rack 0
  }(netw, result));
  sim.run();
  EXPECT_TRUE(result.ok());
  EXPECT_NEAR(result.duration(), 10.0, 1e-6);  // bottleneck is the uplink
}

TEST(Network, FailedTransferNeverReportsMoreThanRequested) {
  // Abort a tiny fast flow inside the kMinTimeStep scheduling window: the
  // fluid model has overshot the target bytes by then, and the partial-bytes
  // accounting must clamp to the requested size instead of rounding above it.
  sim::Simulation sim;
  Network netw(sim, star(2, gbps(10)), 0.0);
  TransferResult result;
  sim.spawn([](Network& n, TransferResult& out) -> sim::Task<> {
    // 1 byte at 10 Gbps drains in 0.8 ns; its completion event is clamped to
    // the 1 ns minimum step, leaving a window where work exceeds the target.
    out = co_await n.transfer(0, 1, 1);
  }(netw, result));
  sim.schedule_at(9e-10, [&] { netw.fail_node(1); });
  sim.run();
  EXPECT_EQ(result.status, TransferStatus::kFailed);
  EXPECT_LE(result.transferred, result.requested);
}

}  // namespace
}  // namespace frieda::net
