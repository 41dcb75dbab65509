// Allocation budget of the unit lifecycle.  A replaced global operator new
// counts the heap allocations of one closed-batch run, divided by its units,
// on the two engine-bound shapes of the layered benchmark: the 1,000-unit
// pre-partition-local BLAST batch and the 312-unit ALS real-time batch
// (seed 1 of each), and the setup of the BLAST batch: the FriedaRun
// constructor plus pre_place_partitions.  The count does not depend on the
// machine, so the bounds are a gate like the pinned exact records.  Three
// first tests check that the waiters of Signal, Semaphore, WaitGroup and
// Channel allocate nothing of their own, that a spawned root costs only its
// frame, and that arming, moving and disarming a timer allocate nothing.
//
// Measured with g++ 12 / libstdc++: 6.67 allocations per unit (BLAST) and
// 29.9 (ALS); 9.72 and 37.2 while spawned roots sat in a hash map, FriedaRun
// kept its per-VM and per-unit state in maps keyed by id, and
// ReplicaMap::nodes_with returned a fresh vector.  The BLAST setup makes 6.26
// per unit, most of them replica-map nodes.  Raising a bound needs a recorded
// reason.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/sweep.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"
#include "sim/timer.hpp"
#include "workload/blast.hpp"
#include "workload/image_compare.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Count every allocation of this test binary.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined, GCC 12 takes the free() for a mismatched
// deallocation of memory from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace frieda {
namespace {

TEST(AllocBudget, SimWaitersAllocateNothing) {
  sim::Simulation sim;
  const std::size_t before = g_allocations.load();
  {
    sim::Signal never_waited(sim);
    never_waited.trigger();
    sim::WaitGroup group(sim);
    group.add(2);
    group.done();
    group.done();
    sim::Semaphore free_permit(sim, 1);
    free_permit.release();
  }
  EXPECT_EQ(g_allocations.load(), before);

  // Blocking and waking: the waiters' frames and the queue's slots exist
  // once every task sits in its first delay; from there, blocking only
  // links and waking only unlinks and schedules.  Three tasks wait on a
  // signal, two block in a semaphore's acquire and two block in a channel's
  // recv; one receiver gets a value, the other the close.
  sim::Signal signal(sim);
  sim::Semaphore semaphore(sim, 0);
  sim::Channel<int> channel(sim);
  int woken = 0;
  int acquired = 0;
  std::vector<std::optional<int>> received;
  received.reserve(2);
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](sim::Simulation& s, sim::Signal& sig, int& n) -> sim::Task<> {
      co_await s.delay(1.0);
      co_await sig.wait();
      ++n;
    }(sim, signal, woken));
  }
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](sim::Simulation& s, sim::Semaphore& sem, int& n) -> sim::Task<> {
      co_await s.delay(1.0);
      co_await sem.acquire();
      ++n;
    }(sim, semaphore, acquired));
    sim.spawn([](sim::Simulation& s, sim::Channel<int>& ch,
                 std::vector<std::optional<int>>& out) -> sim::Task<> {
      co_await s.delay(1.0);
      out.push_back(co_await ch.recv());
    }(sim, channel, received));
  }
  sim.run_until(0.5);
  const std::size_t at_block = g_allocations.load();
  sim.run_until(2.0);
  signal.trigger();
  semaphore.release();
  semaphore.release();
  EXPECT_TRUE(channel.send(7));
  channel.close();
  EXPECT_EQ(g_allocations.load(), at_block);
  sim.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(acquired, 2);
  EXPECT_EQ(semaphore.available(), 0);
  EXPECT_EQ(received, (std::vector<std::optional<int>>{7, std::nullopt}));
}

TEST(AllocBudget, SpawnAllocatesOnlyTheFrame) {
  // A root that runs to completion costs its coroutine frame and nothing
  // else: no registry node, no name copy, no completion hook.  The first
  // batch grows the event queue to its high-water mark.
  constexpr int kRoots = 64;
  sim::Simulation sim;
  int finished = 0;
  const auto batch = [&] {
    for (int i = 0; i < kRoots; ++i) {
      sim.spawn([](sim::Simulation& s, int& n) -> sim::Task<> {
        co_await s.delay(1.0);
        ++n;
      }(sim, finished), "root");
    }
    sim.run();
  };
  batch();
  const std::size_t before = g_allocations.load();
  batch();
  EXPECT_EQ(g_allocations.load() - before, static_cast<std::size_t>(kRoots));
  EXPECT_EQ(finished, 2 * kRoots);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(AllocBudget, TimerArmAllocatesNothing) {
  // Once the queue's heap has grown, arming, moving and disarming timers
  // and firing them allocate nothing: an entry names its timer by address.
  struct Tick final : sim::Timer {
    explicit Tick(sim::Simulation& s) : Timer(s) {}
    void fire() override { ++fired; }
    int fired = 0;
  };
  sim::Simulation sim;
  std::vector<std::optional<Tick>> ticks(64);
  for (auto& t : ticks) t.emplace(sim);
  const auto round = [&] {
    const SimTime base = sim.now();
    for (std::size_t i = 0; i < ticks.size(); ++i) ticks[i]->arm_at(base + 10.0 + i % 7);
    for (std::size_t i = 0; i < ticks.size(); i += 2) ticks[i]->arm_at(base + 1.0 + i % 5);
    for (std::size_t i = 0; i < ticks.size(); i += 3) ticks[i]->disarm();
    sim.run();
  };
  round();  // grows the heap, stale entries included
  const std::size_t before = g_allocations.load();
  round();
  round();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(ticks[1]->fired, 3);
  EXPECT_EQ(ticks[0]->fired, 0);
  EXPECT_EQ(sim.event_counters().scheduled,
            sim.event_counters().fired + sim.event_counters().cancelled);
}

/// Allocations per completed unit made while `run` executes.
double allocations_per_unit(core::FriedaRun& run, std::size_t expected_units) {
  const std::size_t before = g_allocations.load();
  const auto report = run.run();
  const std::size_t made = g_allocations.load() - before;
  EXPECT_EQ(report.units_total, expected_units);
  EXPECT_TRUE(report.all_completed()) << report.summary();
  return static_cast<double>(made) / static_cast<double>(report.units_completed);
}

/// perfbench's seed-1 blast_batch shape: 1,000 BLAST units on 20 single-core
/// VMs in racks of 10, pre-partition-local.  Counts the allocations of the
/// FriedaRun constructor plus pre_place_partitions, with their arguments
/// built beforehand.
struct BlastBatch {
  static constexpr std::size_t kUnits = 1'000;
  static constexpr std::size_t kVms = 20;
  static constexpr std::size_t kRackSize = 10;

  BlastBatch() : app(params()), sim(exp::derive_seed(1, 2)), cluster(sim, options()) {
    auto type = cluster::c1_xlarge();
    type.cores = 1;
    type.nic_up = gbps(1);
    type.nic_down = gbps(1);
    type.boot_time = 0.0;
    const auto vms = cluster.provision(type, kVms);
    auto& topo = cluster.network().topology();
    for (std::size_t i = 0; i < vms.size(); ++i) {
      topo.set_rack(cluster.vm(vms[i]).node(), static_cast<net::RackId>(i / kRackSize));
    }
    for (net::RackId r = 0; r * kRackSize < vms.size(); ++r) topo.set_rack_uplink(r, gbps(40));

    core::RunOptions ropt;
    ropt.strategy = core::PlacementStrategy::kPrePartitionLocal;
    ropt.scheme = core::PartitionScheme::kSingleFile;
    ropt.multicore = true;
    auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                    app.catalog());
    core::CommandTemplate command("blastall -p blastp -d /data/db $inp1");
    const std::size_t before = g_allocations.load();
    run.emplace(cluster, app.catalog(), std::move(units), app, std::move(command), ropt);
    run->pre_place_partitions(vms);
    setup_allocations = g_allocations.load() - before;
  }

  static workload::BlastParams params() {
    auto p = workload::BlastParams::paper();
    p.sequence_count = kUnits;
    p.seed = exp::derive_seed(1, 1);
    return p;
  }
  static cluster::ClusterOptions options() {
    cluster::ClusterOptions copts;
    copts.source_nic_up = gbps(10);
    copts.source_nic_down = gbps(10);
    return copts;
  }

  const workload::BlastModel app;
  sim::Simulation sim;
  cluster::VirtualCluster cluster;
  std::optional<core::FriedaRun> run;
  std::size_t setup_allocations = 0;
};

TEST(AllocBudget, BlastBatchSetup) {
  BlastBatch batch;
  const double per_unit =
      static_cast<double>(batch.setup_allocations) / static_cast<double>(BlastBatch::kUnits);
  RecordProperty("setup_allocations_per_unit", std::to_string(per_unit));
  EXPECT_LE(per_unit, 6.6);
}

TEST(AllocBudget, BlastBatchUnitLifecycle) {
  BlastBatch batch;
  const double per_unit = allocations_per_unit(*batch.run, BlastBatch::kUnits);
  RecordProperty("allocations_per_unit", std::to_string(per_unit));
  EXPECT_LE(per_unit, 7.45);
}

TEST(AllocBudget, AlsNetworkUnitLifecycle) {
  // ALS at half the paper's size (312 units, 624 transfers), real-time, on
  // 32 c1.xlarge VMs behind the 100 Mbps source NIC.
  constexpr std::size_t kVms = 32;
  auto params = workload::ImageCompareParams::paper();
  params.image_count = static_cast<std::size_t>(static_cast<double>(params.image_count) * 0.5);
  params.seed = exp::derive_seed(1, 1);
  const workload::ImageCompareModel app(params);

  sim::Simulation sim(exp::derive_seed(1, 2));
  cluster::VirtualCluster cluster(sim);
  auto type = cluster::c1_xlarge();
  type.boot_time = 0.0;
  cluster.provision(type, kVms);

  core::RunOptions ropt;
  ropt.strategy = core::PlacementStrategy::kRealTime;
  ropt.scheme = core::PartitionScheme::kPairwiseAdjacent;
  ropt.multicore = true;
  core::FriedaRun run(
      cluster, app.catalog(),
      core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent, app.catalog()),
      app, core::CommandTemplate("compare_images $inp1 $inp2"), ropt);

  const double per_unit = allocations_per_unit(run, params.image_count / 2);
  RecordProperty("allocations_per_unit", std::to_string(per_unit));
  EXPECT_LE(per_unit, 31.7);
}

}  // namespace
}  // namespace frieda
