// EXP-M0 — google-benchmark microbenchmarks of the substrate primitives:
// event queue throughput, coroutine channel round trips, the max-min fair
// solver, partition generation, sweep-engine throughput (1 thread vs. a
// pool) on a fixed scenario grid, the fork-based process backend on the same
// grid (thread vs. process), and steal-half dispatch on a deliberately
// skewed grid (pinned vs. stealing).  Whole runs, memoized sweeps and
// execution templates are measured end to end by perfbench/.
#include <benchmark/benchmark.h>

#include <deque>

#include "exp/grid.hpp"
#include "frieda/partition.hpp"
#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace frieda;

/// A timer whose action only counts its firings.
struct Tick final : sim::Timer {
  explicit Tick(sim::Simulation& sim) : Timer(sim) {}
  void fire() override { ++fired; }
  std::uint64_t fired = 0;
};

void BM_EventQueuePushPop(benchmark::State& state) {
  // n timers armed at scattered times, then popped and fired in order by
  // the event loop.  The timers and the queue's heap persist across
  // iterations, so this is the steady state: no allocation per event.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  std::deque<Tick> timers;
  for (std::size_t i = 0; i < n; ++i) timers.emplace_back(sim);
  for (auto _ : state) {
    const SimTime base = sim.now();
    for (std::size_t i = 0; i < n; ++i) {
      timers[i].arm_at(base + static_cast<double>((i * 2654435761u) % 1000));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(timers.front().fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulationDelays(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    auto ticker = [](sim::Simulation& s, int count) -> sim::Task<> {
      for (int i = 0; i < count; ++i) co_await s.delay(1.0);
    };
    sim.spawn(ticker(sim, n));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimulationDelays)->Arg(1000)->Arg(10000);

void BM_ChannelRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> ch(sim);
    sim.spawn([](sim::Simulation& s, sim::Channel<int>& c, int count) -> sim::Task<> {
      for (int i = 0; i < count; ++i) {
        c.send(i);
        co_await s.delay(0.0);
      }
      c.close();
    }(sim, ch, n));
    sim.spawn([](sim::Channel<int>& c) -> sim::Task<> {
      while (co_await c.recv()) {
      }
    }(ch));
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ChannelRoundTrip)->Arg(1000);

void BM_MaxMinFairSolve(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<Bandwidth> caps(32);
  for (auto& c : caps) c = rng.uniform(1.0, 100.0);
  std::vector<net::FlowConstraints> constraints(flows);
  for (auto& fc : constraints) {
    fc.resources = {rng.index(32), rng.index(32)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair_rates(caps, constraints));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_MaxMinFairSolve)->Arg(16)->Arg(256);

void BM_NetworkManyFlows(benchmark::State& state) {
  // Many-flow fluid-model stress: a staging-like pattern where a handful of
  // data servers feed a large worker pool, with mixed destinations, payload
  // sizes and per-transfer stream counts.  With Arg(512) this puts ~1.3k
  // concurrent flows into the network at once, which is the regime the
  // flow-class coalescing / incremental-recompute fast path targets.
  const std::size_t transfers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kWorkers = 32;
  std::size_t flows = 0;
  for (auto _ : state) {
    sim::Simulation sim(7);
    net::Topology topo;
    for (std::size_t i = 0; i < kServers; ++i) {
      topo.add_node("srv" + std::to_string(i), gbps(1), gbps(1));
    }
    for (std::size_t i = 0; i < kWorkers; ++i) {
      topo.add_node("wrk" + std::to_string(i), mbps(100), mbps(100));
    }
    net::Network netw(sim, std::move(topo), /*latency=*/1e-3);
    Rng rng(13);
    flows = 0;
    for (std::size_t i = 0; i < transfers; ++i) {
      const auto src = static_cast<net::NodeId>(rng.index(kServers));
      const auto dst = static_cast<net::NodeId>(kServers + rng.index(kWorkers));
      const unsigned streams = 1 + static_cast<unsigned>(rng.index(4));
      const Bytes bytes = (1 + rng.index(8)) * MB;
      flows += streams;
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d, Bytes b,
                   unsigned st) -> sim::Task<> {
        (void)co_await n.transfer(s, d, b, st);
      }(netw, src, dst, bytes, streams));
    }
    sim.run();
    benchmark::DoNotOptimize(netw.total_bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_NetworkManyFlows)
    ->Arg(128)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_NetworkChurn(benchmark::State& state) {
  // Churn-heavy incremental-solver stress: a hierarchical rack topology where
  // long-lived cross-rack background flows (which chain every rack together
  // through the uplinks) coexist with rapid-fire intra-rack transfers.  Each
  // churn arrival/departure perturbs exactly one flow class while the
  // background classes are untouched, so a minority of flows change per
  // solve — the regime where dirty-set propagation beats re-solving the
  // whole network.
  const std::size_t churn = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRacks = 48;
  constexpr std::size_t kPerRack = 4;
  const auto node = [](std::size_t rack, std::size_t i) {
    return static_cast<net::NodeId>(rack * kPerRack + i);
  };
  for (auto _ : state) {
    sim::Simulation sim(23);
    net::Topology topo;
    for (std::size_t r = 0; r < kRacks; ++r) {
      for (std::size_t i = 0; i < kPerRack; ++i) {
        const auto id = topo.add_node("r" + std::to_string(r) + "n" + std::to_string(i),
                                      gbps(1), gbps(1));
        topo.set_rack(id, static_cast<net::RackId>(r));
      }
      topo.set_rack_uplink(static_cast<net::RackId>(r), gbps(4));
    }
    net::Network netw(sim, std::move(topo), /*latency=*/1e-4);
    // Long-lived background: four streams per rack to the next rack over,
    // outlasting the entire churn phase.
    for (std::size_t r = 0; r < kRacks; ++r) {
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d) -> sim::Task<> {
        (void)co_await n.transfer(s, d, 100 * GB, /*streams=*/4);
      }(netw, node(r, 0), node((r + 1) % kRacks, 1)));
    }
    // Churn lanes: per rack, a back-to-back sequence of small intra-rack
    // transfers — every completion immediately triggers the next arrival.
    const std::size_t per_lane = churn / kRacks;
    for (std::size_t r = 0; r < kRacks; ++r) {
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d,
                   std::size_t count) -> sim::Task<> {
        for (std::size_t i = 0; i < count; ++i) {
          (void)co_await n.transfer(s, d, 4 * MB);
        }
      }(netw, node(r, 2), node(r, 3), per_lane));
    }
    sim.run();
    benchmark::DoNotOptimize(netw.total_bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(churn / kRacks * kRacks));
}
BENCHMARK(BM_NetworkChurn)->Arg(2304)->Arg(9216)->Unit(benchmark::kMillisecond);

void BM_PartitionGenerate(benchmark::State& state) {
  storage::FileCatalog cat;
  for (int i = 0; i < 2000; ++i) cat.add_file("f" + std::to_string(i), MB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent, cat));
  }
}
BENCHMARK(BM_PartitionGenerate);

void BM_SweepThroughput(benchmark::State& state) {
  // The tentpole measurement: a fixed 32-job BLAST grid (8 seeds x 4
  // strategies at 10% scale, one shared immutable model) executed per
  // iteration on Arg(n) pool threads.  Arg(1) is the sequential baseline;
  // the per-iteration wall time ratio is the sweep speedup.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  workload::PaperScenarioOptions base;
  base.scale = 0.1;
  const auto model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(base));
  for (auto _ : state) {
    exp::Grid grid;
    for (std::uint64_t s = 0; s < 8; ++s) {
      auto opt = base;
      opt.seed = exp::derive_seed(2012, s);
      grid.add_blast(core::PlacementStrategy::kNoPartitionCommon, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionRemote, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionLocal, opt, model);
      grid.add_blast(core::PlacementStrategy::kRealTime, opt, model);
    }
    exp::SweepRunner<> runner(exp::SweepOptions{threads});
    runner.set_cache(nullptr);  // measuring execution, not memoization
    const auto outcomes = runner.run(grid.take());
    for (const auto& o : outcomes) benchmark::DoNotOptimize(o.get().units_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_SweepProcess(benchmark::State& state) {
  // The fork backend on the same fixed 32-job BLAST grid as
  // BM_SweepThroughput, at the same Arg(n) worker count: each job executes
  // in a forked child and ships its report back over a pipe.  The delta
  // against BM_SweepThroughput at equal Arg is the per-job isolation tax
  // (fork + serialize + deserialize + reap).  Real time is the honest
  // metric here — the process CPU clock does not include forked children.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  workload::PaperScenarioOptions base;
  base.scale = 0.1;
  const auto model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(base));
  for (auto _ : state) {
    exp::Grid grid;
    for (std::uint64_t s = 0; s < 8; ++s) {
      auto opt = base;
      opt.seed = exp::derive_seed(2012, s);
      grid.add_blast(core::PlacementStrategy::kNoPartitionCommon, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionRemote, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionLocal, opt, model);
      grid.add_blast(core::PlacementStrategy::kRealTime, opt, model);
    }
    exp::SweepOptions sopt{threads};
    sopt.backend = exp::SweepBackend::kProcess;
    exp::SweepRunner<> runner(sopt);
    runner.set_cache(nullptr);  // measuring execution, not memoization
    const auto outcomes = runner.run(grid.take());
    for (const auto& o : outcomes) benchmark::DoNotOptimize(o.get().units_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SweepProcess)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SweepSteal(benchmark::State& state) {
  // Steal-half dispatch on a deliberately skewed grid: four heavy cells
  // (4x scale) land on workers 0-3 of an 8-thread pool with light cells
  // queued behind them.  Arg(0) pins every worker to its dealt share — the
  // light cells behind the heavy ones strand until their owner finishes —
  // while Arg(1) lets idle workers steal the front half of the fattest
  // backlog.  The delta is the stranded idle tail; on a single-core host
  // both run the same total work and the numbers collapse (the committed
  // BENCH_engine.json entry carries that caveat).
  const bool steal = state.range(0) == 1;
  workload::PaperScenarioOptions light;
  light.scale = 0.05;
  workload::PaperScenarioOptions heavy;
  heavy.scale = 0.2;
  const auto light_model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(light));
  const auto heavy_model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(heavy));
  for (auto _ : state) {
    exp::Grid grid;
    for (std::uint64_t s = 0; s < 4; ++s) {
      auto opt = heavy;
      opt.seed = exp::derive_seed(7, s);
      grid.add_blast(core::PlacementStrategy::kRealTime, opt, heavy_model);
    }
    for (std::uint64_t s = 0; s < 28; ++s) {
      auto opt = light;
      opt.seed = exp::derive_seed(11, s);
      grid.add_blast(core::PlacementStrategy::kRealTime, opt, light_model);
    }
    exp::SweepOptions sopt{8};
    sopt.steal = steal;
    exp::SweepRunner<> runner(sopt);
    runner.set_cache(nullptr);
    const auto outcomes = runner.run(grid.take());
    for (const auto& o : outcomes) benchmark::DoNotOptimize(o.get().units_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SweepSteal)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
