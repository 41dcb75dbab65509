// EXP-M0 — google-benchmark microbenchmarks of the substrate primitives:
// event queue throughput, coroutine channel round trips, the max-min fair
// solver, partition generation, a full small FRIEDA run per iteration,
// sweep-engine throughput (1 thread vs. a pool) on a fixed scenario grid,
// sweep memoization (duplicate-heavy grid, uncached vs. warm cache), the
// fork-based process backend on the same grid (thread vs. process), and
// steal-half dispatch on a deliberately skewed grid (pinned vs. stealing).
#include <benchmark/benchmark.h>

#include "cluster/cluster.hpp"
#include "exp/grid.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "frieda/template.hpp"
#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace frieda;

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!q.empty()) q.pop();
  }
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

void BM_FullFriedaRun(benchmark::State& state) {
  // A complete small real-time run per iteration: controller, master,
  // 8 workers, 128 units, network staging and execution.
  for (auto _ : state) {
    sim::Simulation sim(11);
    cluster::VirtualCluster cluster(sim);
    auto type = cluster::c1_xlarge();
    type.boot_time = 0.0;
    cluster.provision(type, 2);
    workload::SyntheticParams params;
    params.file_count = 128;
    params.mean_file_bytes = MB;
    params.mean_task_seconds = 1.0;
    workload::SyntheticModel app(params);
    auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                    app.catalog());
    core::RunOptions opt;
    opt.strategy = core::PlacementStrategy::kRealTime;
    core::FriedaRun run(cluster, app.catalog(), std::move(units), app,
                        core::CommandTemplate("app $inp1"), opt);
    const auto report = run.run();
    benchmark::DoNotOptimize(report.units_completed);
  }
}
BENCHMARK(BM_FullFriedaRun)->Unit(benchmark::kMillisecond);

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

void BM_SweepMemoized(benchmark::State& state) {
  // Memoization measurement: a duplicate-heavy 32-job BLAST grid (the same
  // 4 strategy cells repeated 8 times — the shape ablation drivers produce
  // when several tables re-run a shared baseline).  Arg(0) runs with the
  // cache disabled (all 32 cells execute); Arg(1) keeps one ResultCache warm
  // across iterations, so every cell is served from cache and the duplicate
  // cells' execution cost is eliminated.  The ratio is what cross-grid
  // memoization buys; like BM_SweepThroughput it is wall-clock honest even
  // on a single-core container, since no pool scaling is involved.
  const bool memoized = state.range(0) == 1;
  workload::PaperScenarioOptions base;
  base.scale = 0.1;
  const auto model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(base));
  exp::ResultCache<core::RunReport> cache;  // local: iteration-to-iteration warmth
  for (auto _ : state) {
    exp::Grid grid;
    for (int rep = 0; rep < 8; ++rep) {
      grid.add_blast(core::PlacementStrategy::kNoPartitionCommon, base, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionRemote, base, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionLocal, base, model);
      grid.add_blast(core::PlacementStrategy::kRealTime, base, model);
    }
    exp::SweepRunner<> runner(exp::SweepOptions{1});
    runner.set_cache(memoized ? &cache : nullptr);
    const auto outcomes = runner.run(grid.take());
    for (const auto& o : outcomes) benchmark::DoNotOptimize(o.get().units_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SweepMemoized)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ControlPlaneTemplate(benchmark::State& state) {
  // Control-plane cost per unit, cold vs. warm.  Cold (range(1)==0) is what
  // the first run of a scenario pays: partition generation plus a full
  // template capture — one command binding per unit, the assignment table,
  // and validation.  Warm (range(1)==1) is what every subsequent run pays:
  // a store lookup plus the instantiation copies a run actually consumes
  // (the unit list, the assignment table, one AssignWork prototype per
  // unit).  The per-item ratio is what execution templates buy.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool warm = state.range(1) == 1;
  storage::FileCatalog cat;
  cat.add_file("query.fasta", 4 * MB);
  for (std::size_t i = 0; i < n; ++i) {
    cat.add_file("db" + std::to_string(i), MB + (i % 7) * 128 * 1024);
  }
  const core::CommandTemplate command("blastall -p blastp -i $inp1 -d $inp2");
  constexpr std::size_t kWorkers = 16;
  core::TemplateStore store;
  const Fingerprint key =
      StableHasher().mix_str("bench-control-plane").mix_u64(n).digest();
  if (warm) {
    auto units = core::PartitionGenerator::generate(core::PartitionScheme::kOneToAll, cat);
    store.insert(key, core::ExecutionTemplate::capture(
                          std::move(units), command, cat, "/data", true,
                          core::AssignmentPolicy::kRoundRobin, kWorkers, 0, {}));
  }
  for (auto _ : state) {
    if (warm) {
      const auto tmpl = *store.lookup(key);
      std::vector<core::WorkUnit> units = tmpl->units();
      std::vector<std::vector<core::WorkUnitId>> table = tmpl->assignment();
      benchmark::DoNotOptimize(table);
      for (std::size_t i = 0; i < units.size(); ++i) {
        core::AssignWork work = tmpl->prototypes()[i];
        benchmark::DoNotOptimize(work);
      }
      benchmark::DoNotOptimize(units);
    } else {
      store.clear();
      auto units =
          core::PartitionGenerator::generate(core::PartitionScheme::kOneToAll, cat);
      auto tmpl = core::ExecutionTemplate::capture(
          std::move(units), command, cat, "/data", true,
          core::AssignmentPolicy::kRoundRobin, kWorkers, 0, {});
      store.insert(key, std::move(tmpl));
      benchmark::DoNotOptimize(store.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ControlPlaneTemplate)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
