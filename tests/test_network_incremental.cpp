// Differential and determinism coverage for the incremental max-min solver.
//
// The incremental path maintains the solved allocation between events and
// re-solves only the dirty connected component (see src/net/network.hpp).
// These tests drive randomized churn — arrivals, natural departures, node
// failures and restores — with Network::set_differential_check() enabled,
// which re-solves the whole system from scratch after every incremental
// solve and throws if any active class's stored rate diverges.  A second
// suite checks that large runs are bit-deterministic across repetitions.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace frieda::net {
namespace {

Topology star(std::size_t nodes, Bandwidth nic) {
  Topology t;
  for (std::size_t i = 0; i < nodes; ++i) {
    t.add_node("n" + std::to_string(i), nic, nic);
  }
  return t;
}

// Rack/site/backbone-rich topology so dirty components have real structure:
// some classes share uplinks, some only the backbone, some nothing at all.
Topology hierarchical(std::size_t racks, std::size_t per_rack) {
  Topology t;
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t i = 0; i < per_rack; ++i) {
      const auto id = t.add_node("r" + std::to_string(r) + "n" + std::to_string(i),
                                 gbps(1), gbps(1));
      t.set_rack(id, static_cast<RackId>(r));
    }
    t.set_rack_uplink(static_cast<RackId>(r), gbps(4));
  }
  return t;
}

struct ChurnStats {
  std::size_t started = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  Bytes bytes = 0;
  SimTime end_time = 0.0;
  Network::Counters counters;
};

// Spawns `events` transfers over random pairs with random sizes/streams and
// sprinkles fail/restore cycles over a few victim nodes.  With the
// differential check on, every incremental solve is audited against a fresh
// full solve, so simply surviving the run is the assertion.
// `results`, when given, receives every transfer's result in spawn order.
ChurnStats run_churn(Topology topo, std::uint64_t seed, std::size_t events,
                     bool with_failures, bool differential,
                     std::vector<TransferResult>* results = nullptr) {
  sim::Simulation sim(seed);
  const auto nodes = topo.node_count();
  Network netw(sim, std::move(topo), /*latency=*/1e-4);
  netw.set_differential_check(differential);
  ChurnStats stats;
  if (results) results->assign(events, TransferResult{});
  Rng rng(seed);
  for (std::size_t e = 0; e < events; ++e) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    if (rng.uniform() < 0.9 && dst == src) dst = (src + 1) % nodes;  // mostly distinct
    const Bytes bytes = static_cast<Bytes>(rng.uniform_int(1, 8 * MB));
    const auto streams = static_cast<unsigned>(rng.uniform_int(1, 4));
    const SimTime at = rng.uniform(0.0, 5.0);
    TransferResult* out = results ? &(*results)[e] : nullptr;
    sim.schedule_at(at, [&, src, dst, bytes, streams, out] {
      sim.spawn([](Network& n, ChurnStats& st, NodeId s, NodeId d, Bytes b, unsigned k,
                   TransferResult* o) -> sim::Task<> {
        ++st.started;
        const auto r = co_await n.transfer(s, d, b, k);
        r.ok() ? ++st.completed : ++st.failed;
        st.bytes += r.transferred;
        if (o) *o = r;
      }(netw, stats, src, dst, bytes, streams, out));
    });
  }
  if (with_failures) {
    for (int v = 0; v < 4; ++v) {
      const auto victim = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      const SimTime down = rng.uniform(0.5, 4.0);
      sim.schedule_at(down, [&, victim] { netw.fail_node(victim); });
      sim.schedule_at(down + rng.uniform(0.1, 1.0),
                      [&, victim] { netw.restore_node(victim); });
    }
  }
  sim.run();
  stats.end_time = sim.now();
  stats.counters = netw.counters();
  EXPECT_EQ(stats.started, events);
  EXPECT_EQ(stats.completed + stats.failed, events);
  EXPECT_EQ(netw.active_flows(), 0u);
  EXPECT_EQ(netw.active_flow_classes(), 0u);
  return stats;
}

TEST(NetworkIncremental, DifferentialChurnOnStar) {
  // Dense star: most classes share the handful of NICs, so dirty components
  // are large and exercise multi-class BFS + drain sweeps.
  const auto stats = run_churn(star(8, mbps(500)), 17, 1000, /*with_failures=*/false,
                               /*differential=*/true);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(NetworkIncremental, DifferentialChurnWithFailures) {
  // Failures force full solves (invalidation) between incremental runs and
  // abort in-flight flows with partial byte accounting.
  const auto stats = run_churn(star(8, mbps(500)), 23, 1000, /*with_failures=*/true,
                               /*differential=*/true);
  EXPECT_GT(stats.completed, 0u);
}

TEST(NetworkIncremental, DifferentialChurnOnHierarchy) {
  // Racked topology: intra-rack classes form small isolated components,
  // cross-rack classes couple racks through shared uplinks.
  const auto stats = run_churn(hierarchical(6, 4), 31, 1000, /*with_failures=*/true,
                               /*differential=*/true);
  EXPECT_GT(stats.completed, 0u);
}

TEST(NetworkIncremental, PartialBytesStayClamped) {
  // Every failed transfer must report transferred <= requested even under
  // fluid-model overshoot (the kMinTimeStep clamp window).
  sim::Simulation sim;
  Network netw(sim, star(6, gbps(10)), 0.0);
  std::vector<TransferResult> results;
  results.reserve(64);  // coroutines hold references into this vector
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    const auto dst = static_cast<NodeId>(1 + rng.uniform_int(0, 4));
    const Bytes bytes = static_cast<Bytes>(rng.uniform_int(1, 64));
    results.emplace_back();
    auto& out = results.back();
    sim.spawn([](Network& n, TransferResult& r, NodeId d, Bytes b) -> sim::Task<> {
      r = co_await n.transfer(0, d, b);
    }(netw, out, dst, bytes));
  }
  sim.schedule_at(5e-10, [&] { netw.fail_node(0); });
  sim.run();
  for (const auto& r : results) EXPECT_LE(r.transferred, r.requested);
}

TEST(NetworkDrainSchedule, EqualFireTimesWakeWaitersInScheduleOrder) {
  // Two disjoint classes drain at the same instant.  Pair 0->1 owns the
  // lower class slot (a warm-up transfer created it), but 2->3 was queued
  // first, so its waiter must wake first — and each class still costs one
  // fired simulation event, as it did with one event per class.
  sim::Simulation sim;
  Network netw(sim, star(4, mbps(100)), /*latency=*/0.0);
  netw.set_differential_check(true);
  std::vector<NodeId> woken;
  std::vector<SimTime> finished;
  const auto xfer = [](Network& n, NodeId s, NodeId d, std::vector<NodeId>& order,
                       std::vector<SimTime>& at) -> sim::Task<> {
    const auto r = co_await n.transfer(s, d, MB);
    order.push_back(s);
    at.push_back(r.finished);
  };
  sim.spawn(xfer(netw, 0, 1, woken, finished));  // warm-up: creates class 0->1
  sim.schedule_at(1.0, [&] {
    sim.spawn(xfer(netw, 2, 3, woken, finished));
    sim.spawn(xfer(netw, 0, 1, woken, finished));
  });
  sim.run();
  ASSERT_EQ(woken, (std::vector<NodeId>{0, 2, 0}));
  EXPECT_EQ(finished[1], finished[2]);
  // warm-up: spawn, drain, resume; then the t=1 callback, two spawns, and a
  // drain plus a resume per class.
  EXPECT_EQ(sim.event_counters().fired, 10u);
}

TEST(NetworkDrainSchedule, FailingTheHeapTopLeavesNoStrayEvent) {
  // fail_node removes the class at the top of the drain schedule; the armed
  // simulation event must move to the next class instead of firing for
  // nothing at the removed class's drain time.
  sim::Simulation sim;
  Network netw(sim, star(4, mbps(100)), /*latency=*/0.0);
  netw.set_differential_check(true);
  TransferResult first;
  TransferResult second;
  const auto xfer = [](Network& n, NodeId s, NodeId d, Bytes b,
                       TransferResult& out) -> sim::Task<> {
    out = co_await n.transfer(s, d, b);
  };
  sim.spawn(xfer(netw, 0, 1, MB, first));        // would drain at 0.08 s
  sim.spawn(xfer(netw, 2, 3, 10 * MB, second));  // drains at 0.8 s
  sim.schedule_at(0.04, [&] { netw.fail_node(1); });
  sim.run();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.finished, 0.04);
  EXPECT_TRUE(second.ok());
  EXPECT_NEAR(second.finished, 0.8, 1e-9);
  // Two spawns, the failure, the aborted waiter's resume, the survivor's
  // drain and its resume.
  EXPECT_EQ(sim.event_counters().fired, 6u);
}

// The solver keeps the last BFS's component between solves (see "Kept
// component" in src/net/network.hpp).  Each case below builds one membership
// change with the differential check on, which compares the kept component
// with a fresh BFS from the seed on every solve; the pinned solve counts and
// dirty-set sizes show which component each solve covered.
struct KeptComponentRun {
  sim::Simulation sim;
  Network netw{sim, star(6, mbps(100)), /*latency=*/0.0};
  std::vector<NodeId> finished;  ///< sources, in completion order

  KeptComponentRun() { netw.set_differential_check(true); }

  void transfer_at(SimTime at, NodeId src, NodeId dst, Bytes bytes) {
    sim.schedule_at(at, [this, src, dst, bytes] {
      sim.spawn([](KeptComponentRun& run, NodeId s, NodeId d, Bytes b) -> sim::Task<> {
        const auto r = co_await run.netw.transfer(s, d, b);
        EXPECT_TRUE(r.ok());
        run.finished.push_back(s);
      }(*this, src, dst, bytes));
    });
  }
};

TEST(NetworkKeptComponent, DetachThatSplitsAComponent) {
  // M = 0->1 bridges L = 0->2 (node 0's egress) and R = 3->1 (node 1's
  // ingress).  When M drains, both of its resources keep a user: the
  // component splits, and L's and R's later solves each cover one class.
  KeptComponentRun run;
  run.transfer_at(0.0, 0, 2, 10 * MB);  // L: cold registry, full solve
  run.transfer_at(0.0, 3, 1, 12 * MB);  // R: BFS {R}
  run.transfer_at(0.0, 0, 1, MB);       // M: neighbours outside {R}, BFS {M, L, R}
  run.sim.run();
  EXPECT_EQ(run.finished, (std::vector<NodeId>{0, 0, 3}));
  // Solves: L 1, R 1, M 3, M drains {L, R} 2, L drains {L} 0, R drains {R} 0
  // (a solve whose component empties counts nothing).
  EXPECT_EQ(run.netw.solver_invocations(), 4u);
  EXPECT_EQ(run.netw.solver_dirty_classes(), 7u);
}

TEST(NetworkKeptComponent, AttachThatBridgesTwoComponents) {
  // A = 0->1 and B = 2->3 share nothing; C = 0->3 joins A's egress and B's
  // ingress while the kept component is {B}, so its solve must reach A too.
  KeptComponentRun run;
  run.transfer_at(0.0, 0, 1, 10 * MB);  // A: full solve
  run.transfer_at(0.0, 2, 3, 12 * MB);  // B: BFS {B}
  run.transfer_at(0.1, 0, 3, MB);       // C: bridges, BFS {C, A, B}
  run.sim.run();
  EXPECT_EQ(run.finished, (std::vector<NodeId>{0, 0, 2}));
  // Solves: A 1, B 1, C 3, C drains {A, B} 2, then A and B drain alone.
  EXPECT_EQ(run.netw.solver_invocations(), 4u);
  EXPECT_EQ(run.netw.solver_dirty_classes(), 7u);
}

TEST(NetworkKeptComponent, FreshClassWithNoNeighbours) {
  // E = 4->1 shares only node 1's ingress with the kept component {A} and
  // joins it without a BFS; D = 2->3 shares nothing with {A, E}: it must be
  // solved alone, not appended.
  KeptComponentRun run;
  run.transfer_at(0.0, 0, 1, 10 * MB);   // A: full solve
  run.transfer_at(0.05, 0, 1, 10 * MB);  // A again: BFS {A}
  run.transfer_at(0.1, 4, 1, MB);        // E: joins {A}
  run.transfer_at(0.2, 2, 3, MB);        // D: BFS {D}
  run.sim.run();
  EXPECT_EQ(run.finished, (std::vector<NodeId>{2, 4, 0, 0}));
  // Solves: A 1, A 1, E 2, D 1, D drains 0, E drains {A} 1, A's two flows
  // drain {A} 1 and 0.
  EXPECT_EQ(run.netw.solver_invocations(), 6u);
  EXPECT_EQ(run.netw.solver_dirty_classes(), 7u);
}

// One churn run's full observable outcome, for determinism comparison.
struct RunFingerprint {
  Bytes total_bytes = 0;
  std::uint64_t solves = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t dirty = 0;
  double end_time = 0.0;

  bool operator==(const RunFingerprint& o) const {
    return total_bytes == o.total_bytes && solves == o.solves &&
           full_solves == o.full_solves && dirty == o.dirty && end_time == o.end_time;
  }
};

// `results`, when given, receives every transfer's result in spawn order.
RunFingerprint big_run(std::size_t transfers, std::vector<TransferResult>* results = nullptr) {
  sim::Simulation sim(13);
  Topology topo;
  for (int i = 0; i < 8; ++i) topo.add_node("srv" + std::to_string(i), gbps(1), gbps(1));
  for (int i = 0; i < 32; ++i) topo.add_node("w" + std::to_string(i), mbps(100), mbps(100));
  Network netw(sim, std::move(topo), 1e-4);
  Rng rng(13);
  if (results) results->assign(transfers, TransferResult{});
  for (std::size_t i = 0; i < transfers; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 7));
    const auto dst = static_cast<NodeId>(8 + rng.uniform_int(0, 31));
    const Bytes bytes = static_cast<Bytes>(rng.uniform_int(64 * KB, MB));
    const auto streams = static_cast<unsigned>(rng.uniform_int(1, 4));
    TransferResult* out = results ? &(*results)[i] : nullptr;
    sim.spawn([](Network& n, NodeId s, NodeId d, Bytes b, unsigned k,
                 TransferResult* o) -> sim::Task<> {
      const auto r = co_await n.transfer(s, d, b, k);
      if (o) *o = r;
    }(netw, src, dst, bytes, streams, out));
  }
  sim.run();
  RunFingerprint fp;
  fp.total_bytes = netw.total_bytes_moved();
  fp.solves = netw.solver_invocations();
  fp.full_solves = netw.solver_full_solves();
  fp.dirty = netw.solver_dirty_classes();
  fp.end_time = sim.now();
  return fp;
}

TEST(NetworkIncremental, DeterministicAtSixteenThousandFlows) {
  // ~4096 transfers x up to 4 streams = the 16384-flow tier of
  // BM_NetworkManyFlows: two runs must agree bit-for-bit on every
  // observable, including the solver's dirty-set accounting.
  const auto a = big_run(4096);
  const auto b = big_run(4096);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.solves, 0u);
  EXPECT_GT(a.dirty, a.solves);  // components average more than one class
}

// Digest over the exact bits of every transfer's start, finish and byte count.
std::string results_digest(const std::vector<TransferResult>& results) {
  StableHasher h;
  for (const auto& r : results) {
    h.mix_u64(std::bit_cast<std::uint64_t>(r.started))
        .mix_u64(std::bit_cast<std::uint64_t>(r.finished))
        .mix_u64(r.transferred);
  }
  return h.digest().to_hex();
}

TEST(NetworkIncremental, PinnedOutputsOfLargeRuns) {
  // Literals captured from the reference implementation: any change to the
  // solver, the drain schedule or the event order that moves a single
  // simulated bit shows up here.
  std::vector<TransferResult> results;
  const auto big = big_run(4096, &results);
  EXPECT_EQ(big.end_time, 0x1.a5b1b193606fbp+2);
  EXPECT_EQ(results_digest(results), "d937d4b05b64388ca8fb9795d1a8ff46");
  EXPECT_EQ(big.solves, 10170u);
  EXPECT_EQ(big.full_solves, 1u);
  EXPECT_EQ(big.dirty, 2370412u);

  // Hierarchical churn with failures and restores (full solves included).
  const auto churn = run_churn(hierarchical(6, 4), 31, 1000, /*with_failures=*/true,
                               /*differential=*/false, &results);
  EXPECT_EQ(churn.end_time, 0x1.490c3d201ac7ep+2);
  EXPECT_EQ(results_digest(results), "ef6e1adfdc2c7e4ca0047a1cc8f979eb");
  EXPECT_EQ(churn.counters.solves, 2322u);
  EXPECT_EQ(churn.counters.full_solves, 9u);
  EXPECT_EQ(churn.counters.dirty_classes, 21745u);
}

TEST(NetworkIncremental, SolverCountersExposeDirtySets) {
  sim::Simulation sim;
  Network netw(sim, star(4, mbps(100)), 0.0);
  for (NodeId dst = 1; dst < 4; ++dst) {
    sim.spawn([](Network& n, NodeId d) -> sim::Task<> {
      (void)co_await n.transfer(0, d, 10 * MB);
    }(netw, dst));
  }
  sim.run();
  // First arrival is a cold registry (one full solve); everything after is
  // incremental, and the three classes share node 0's egress so each solve
  // dirties the whole component.
  EXPECT_GT(netw.solver_invocations(), 0u);
  EXPECT_EQ(netw.solver_full_solves(), 1u);
  EXPECT_GE(netw.solver_dirty_classes(), netw.solver_invocations());
}

}  // namespace
}  // namespace frieda::net
