// Allocation budget of the unit lifecycle.  A replaced global operator new
// counts the heap allocations of one closed-batch run, divided by its units,
// on the two engine-bound shapes of the layered benchmark: the 1,000-unit
// pre-partition-local BLAST batch and the 312-unit ALS real-time batch
// (seed 1 of each).  The count does not depend on the machine, so the
// bounds are a gate like the pinned exact records.  Two first tests check
// that the waiters of Signal, Semaphore, WaitGroup and Channel allocate
// nothing of their own, and that a spawned root costs only its frame.
//
// Measured with g++ 12 / libstdc++: 6.67 allocations per unit (BLAST) and
// 29.9 (ALS); 9.72 and 37.2 while spawned roots sat in a hash map, FriedaRun
// kept its per-VM and per-unit state in maps keyed by id, and
// ReplicaMap::nodes_with returned a fresh vector.  Raising a bound needs a
// recorded reason.
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

/// Allocations per completed unit made while `run` executes.
double allocations_per_unit(core::FriedaRun& run, std::size_t expected_units) {
  const std::size_t before = g_allocations.load();
  const auto report = run.run();
  const std::size_t made = g_allocations.load() - before;
  EXPECT_EQ(report.units_total, expected_units);
  EXPECT_TRUE(report.all_completed()) << report.summary();
  return static_cast<double>(made) / static_cast<double>(report.units_completed);
}

TEST(AllocBudget, BlastBatchUnitLifecycle) {
  // 1,000 BLAST units on 20 single-core VMs in racks of 10, pre-partition-local.
  constexpr std::size_t kUnits = 1'000;
  constexpr std::size_t kVms = 20;
  constexpr std::size_t kRackSize = 10;
  auto params = workload::BlastParams::paper();
  params.sequence_count = kUnits;
  params.seed = exp::derive_seed(1, 1);
  const workload::BlastModel app(params);

  sim::Simulation sim(exp::derive_seed(1, 2));
  cluster::ClusterOptions copts;
  copts.source_nic_up = gbps(10);
  copts.source_nic_down = gbps(10);
  cluster::VirtualCluster cluster(sim, copts);
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
  core::FriedaRun run(cluster, app.catalog(),
                      core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                         app.catalog()),
                      app, core::CommandTemplate("blastall -p blastp -d /data/db $inp1"), ropt);
  run.pre_place_partitions(vms);

  const double per_unit = allocations_per_unit(run, kUnits);
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
