// Robustness (Section V.A "Robust") and elasticity (Section V.A "Elastic")
// integration tests: worker isolation, the requeue extension, and elastic
// add/remove of workers through the controller.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "frieda/partition.hpp"
#include "frieda/report_io.hpp"
#include "frieda/run.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace frieda::core {
namespace {

using cluster::VirtualCluster;
using workload::SyntheticModel;
using workload::SyntheticParams;

struct Scenario {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<VirtualCluster> cluster;
  std::unique_ptr<SyntheticModel> app;
  std::vector<WorkUnit> units;
  std::vector<cluster::VmId> vms;
};

Scenario make_scenario(SyntheticParams params, std::size_t vm_count, unsigned cores,
                       std::uint64_t seed = 7) {
  Scenario s;
  s.sim = std::make_unique<sim::Simulation>(seed);
  s.cluster = std::make_unique<VirtualCluster>(*s.sim);
  auto type = cluster::c1_xlarge();
  type.cores = cores;
  type.boot_time = 0.0;
  s.vms = s.cluster->provision(type, vm_count);
  s.app = std::make_unique<SyntheticModel>(params);
  s.units = PartitionGenerator::generate(PartitionScheme::kSingleFile, s.app->catalog());
  return s;
}

SyntheticParams small_load() {
  SyntheticParams params;
  params.file_count = 40;
  params.mean_file_bytes = MB;
  params.mean_task_seconds = 2.0;
  return params;
}

TEST(Failure, IsolationWithoutRequeueLosesOnlyAffectedUnits) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = false;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(report.workers_isolated, 2u);  // both workers on the failed VM
  EXPECT_GT(report.units_completed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
  // Everything is accounted: completed + failed + unprocessed == total.
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  // The paper's base system does NOT restart failed tasks (Section V.A).
  for (const auto& rec : report.units) {
    if (rec.status == UnitStatus::kFailed) EXPECT_EQ(rec.attempts, 1);
  }
  // The surviving VM's workers kept processing after the failure.
  for (const auto& w : report.workers) {
    if (w.vm == s.vms[0]) EXPECT_GT(w.units_completed, 5u);
  }
}

TEST(Failure, RequeueExtensionCompletesEverything) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;  // the paper's future-work fault recovery
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_TRUE(report.all_completed()) << report.summary();
  // Some units needed more than one attempt.
  bool retried = false;
  for (const auto& rec : report.units) retried |= rec.attempts > 1;
  EXPECT_TRUE(retried);
}

TEST(Failure, LastLiveWorkerFailingMidFlightKeepsAccountingClosed) {
  // The hard corner of the requeue path: requeue_on_failure is on, but the
  // failing worker was the LAST live one, so units in flight cannot requeue
  // (no live worker) and must go terminal instead of lingering kInFlight.
  auto s = make_scenario(small_load(), 1, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 10.0);  // the only VM dies mid-run
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_GT(report.units_completed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
  // Terminal accounting stays closed: every unit is exactly one of
  // completed / failed / unprocessed...
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  // ...and none is stranded in a non-terminal state.
  for (const auto& rec : report.units) {
    EXPECT_NE(rec.status, UnitStatus::kInFlight) << "unit " << rec.unit;
    EXPECT_NE(rec.status, UnitStatus::kPending) << "unit " << rec.unit;
  }
}

TEST(Failure, ExhaustedAttemptsGoTerminalWithRequeueEnabled) {
  // requeue_on_failure with max_attempts == 1: a unit lost to a failure has
  // already spent its only attempt and must go kFailed (not requeue forever,
  // not linger in flight), while the surviving VM finishes the rest.
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;
  opt.max_attempts = 1;
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_GT(report.units_failed, 0u);  // the in-flight casualties
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  for (const auto& rec : report.units) {
    EXPECT_NE(rec.status, UnitStatus::kInFlight) << "unit " << rec.unit;
    if (rec.status == UnitStatus::kFailed) EXPECT_EQ(rec.attempts, 1);
  }
}

TEST(Failure, PrePartitionLosesTheFailedWorkersShare) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = false;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 15.0);
  const auto report = run.run();
  EXPECT_GT(report.units_unprocessed, 0u);  // the share that never ran
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
}

TEST(Failure, PrePartitionWithRequeueRedistributes) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = true;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 15.0);
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
  // Units from the dead VM's share were re-staged to the survivor.
  EXPECT_GT(report.bytes_moved, s.app->catalog().total_bytes());
}

TEST(Failure, AllVmsFailMarksRemainingUnprocessed) {
  auto s = make_scenario(small_load(), 2, 1);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 5.0);
  injector.schedule(s.vms[1], 7.0);
  const auto report = run.run();
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  EXPECT_GT(report.units_unprocessed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
}

TEST(Failure, FailureDuringStagingIsSurvivable) {
  auto params = small_load();
  params.mean_file_bytes = 20 * MB;  // staging takes ~64 s per node share
  auto s = make_scenario(params, 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = true;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 5.0);  // mid-staging
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
}

// Failures on multi-core VMs.  A failed 4-core VM interrupts several compute
// slices at once, and the order in which Vm::fail wakes them (newest first)
// decides the order of the requeues and re-placements that follow.  Nothing
// else pins that order, so these tests pin the digest of the whole
// serialized report.

std::string report_digest(const RunReport& report) {
  StableHasher h;
  h.mix_str(serialize_run_report(report));
  return h.digest().to_hex();
}

TEST(Failure, MultiCoreVmFailuresArePinned) {
  // 400 BLAST sequences, pre-partition-local with requeue, 4 x c1.xlarge.
  struct Pin {
    SimTime fail_at;
    const char* digest;
  };
  const Pin pins[] = {
      {13.0, "41357e7d16bdc1d6d87bc40a3e55073f"},
      {40.0, "3cb009d38d4db45282523bed48a09d48"},
      {90.0, "c0a3a5d1fbd9df1ae9edbe3bc923aa9c"},
      {200.0, "8f2b85042ed6db4302a1e7462aff8bf5"},
  };
  for (const auto& pin : pins) {
    workload::PaperScenarioOptions opt;
    opt.scale = 0.0534;  // 7,500 x 0.0534 -> 400 sequences
    opt.requeue_on_failure = true;
    unsigned interrupted = 0;
    opt.arrange = [&](sim::Simulation& sim, cluster::VirtualCluster& cluster, FriedaRun&) {
      sim.schedule_at(pin.fail_at, [&cluster, &interrupted] {
        const auto victim = cluster.all_vms()[1];
        interrupted = cluster.vm(victim).busy_cores();
        cluster.fail_vm(victim);
      });
    };
    const auto report = workload::run_blast(PlacementStrategy::kPrePartitionLocal, opt);
    EXPECT_EQ(report.units_total, 400u);
    EXPECT_TRUE(report.all_completed()) << report.summary();
    EXPECT_GT(interrupted, 1u) << "t=" << pin.fail_at;
    EXPECT_EQ(report_digest(report), pin.digest) << "t=" << pin.fail_at;
  }
}

TEST(Failure, AlsVmFailureWithFlowsAndDiskWritesInFlightIsPinned) {
  // ALS real-time with requeue: at t=38.721 the victim has one slice
  // computing and an output write on its disk, while input flows run.
  workload::PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.requeue_on_failure = true;
  std::size_t flows = 0, writes = 0;
  unsigned interrupted = 0;
  opt.arrange = [&](sim::Simulation& sim, cluster::VirtualCluster& cluster, FriedaRun&) {
    sim.schedule_at(38.721, [&] {
      const auto victim = cluster.all_vms()[2];
      flows = cluster.network().active_flows();
      writes = cluster.vm(victim).disk().writes_in_flight();
      interrupted = cluster.vm(victim).busy_cores();
      cluster.fail_vm(victim);
    });
  };
  const auto report = workload::run_als(PlacementStrategy::kRealTime, opt);
  EXPECT_GT(flows, 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_EQ(interrupted, 1u);
  EXPECT_TRUE(report.all_completed()) << report.summary();
  EXPECT_EQ(report_digest(report), "4a6c164d06dd554bcb451f754fda1e08");
}

// Same-time order at the two per-unit timers: a VM failure landing at the
// instant a compute slice ends, and a disk write joining at the instant of a
// pending completion.  Whichever was pushed first acts first.

TEST(Failure, VmFailAtTheInstantSlicesEndIsPinned) {
  // Slices a (t = 1 + 4) and b (t = 2 + 3) both end at t = 5; the failure
  // at t = 5 is pushed before both, between them, or after both.
  struct Case {
    SimTime push_fail_at;
    std::vector<std::string> log;
    bool a_ok, b_ok;
    SimTime core_seconds;
    std::uint64_t cancelled;
  };
  const Case cases[] = {
      {0.0, {"fail", "b", "a"}, false, false, 0.0, 2},
      {1.5, {"fail", "a", "b"}, true, false, 4.0, 1},
      {3.0, {"fail", "a", "b"}, true, true, 7.0, 0},
  };
  for (const auto& c : cases) {
    sim::Simulation sim;
    VirtualCluster cluster(sim);
    auto type = cluster::c1_xlarge();
    type.cores = 2;
    type.boot_time = 0.0;
    const auto id = cluster.provision(type);
    std::vector<std::string> log;
    cluster::ComputeResult a, b;
    auto worker = [&](SimTime start, SimTime seconds, cluster::ComputeResult& out,
                      const char* name) -> sim::Task<> {
      co_await sim.delay(start);
      out = co_await cluster.vm(id).compute(seconds);
      log.emplace_back(name);
    };
    sim.schedule_at(c.push_fail_at, [&] {
      sim.schedule_at(5.0, [&] {
        log.emplace_back("fail");
        cluster.fail_vm(id);
      });
    });
    sim.spawn(worker(1.0, 4.0, a, "a"));
    sim.spawn(worker(2.0, 3.0, b, "b"));
    sim.run();
    EXPECT_EQ(log, c.log) << "pushed at " << c.push_fail_at;
    EXPECT_EQ(a.completed, c.a_ok) << "pushed at " << c.push_fail_at;
    EXPECT_EQ(b.completed, c.b_ok) << "pushed at " << c.push_fail_at;
    EXPECT_DOUBLE_EQ(a.duration, 4.0);
    EXPECT_DOUBLE_EQ(b.duration, 3.0);
    EXPECT_DOUBLE_EQ(cluster.vm(id).core_seconds_used(), c.core_seconds);
    EXPECT_EQ(sim.event_counters().cancelled, c.cancelled) << "pushed at " << c.push_fail_at;
  }
}

TEST(Failure, DiskWriteJoiningAtAPendingCompletionIsPinned) {
  // Writes A (45 MB) and C (90 MB) share a 90 MB/s disk from t = 0, so A
  // ends at t = 1; B (9 MB) joins at t = 1, before or after that completion.
  for (const bool join_first : {true, false}) {
    sim::Simulation sim;
    VirtualCluster cluster(sim);
    auto type = cluster::c1_xlarge();
    type.boot_time = 0.0;
    type.disk_write_bw = mBps(90);
    const auto id = cluster.provision(type);
    std::vector<std::pair<std::string, SimTime>> log;
    auto writer = [&](SimTime start, Bytes bytes, const char* name) -> sim::Task<> {
      co_await sim.delay(start);
      const auto io = co_await cluster.vm(id).disk().write(bytes);
      EXPECT_TRUE(io.ok);
      log.emplace_back(name, sim.now());
    };
    // B's delay to t = 1 is pushed before the disk arms its completion at
    // t = 0, or at t = 0.5, after it.
    if (join_first) sim.spawn(writer(1.0, 9 * MB, "B"));
    sim.spawn(writer(0.0, 45 * MB, "A"));
    sim.spawn(writer(0.0, 90 * MB, "C"));
    if (!join_first) sim.schedule_at(0.5, [&] { sim.spawn(writer(0.5, 9 * MB, "B")); });
    sim.run();
    // From t = 1, B and C share the disk: B's 9 MB take 0.2 s, and C's
    // remaining 45 MB end 0.4 s after that at the full rate.
    const std::vector<std::pair<std::string, SimTime>> expected{
        {"A", 1.0}, {"B", 1.2}, {"C", 1.6}};
    ASSERT_EQ(log.size(), expected.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].first, expected[i].first) << "join_first " << join_first;
      EXPECT_DOUBLE_EQ(log[i].second, expected[i].second) << "join_first " << join_first;
    }
    const auto& counters = sim.event_counters();
    // Joining first retires A inside B's submit, which moves the pending
    // completion (a cancel); joining after lets that completion fire.
    EXPECT_EQ(counters.cancelled, 2u) << "join_first " << join_first;
    EXPECT_EQ(counters.fired, join_first ? 12u : 14u) << "join_first " << join_first;
  }
}

TEST(Elasticity, AddVmMidRunSpeedsCompletion) {
  auto params = small_load();
  params.mean_task_seconds = 5.0;
  auto run_with = [&](bool elastic) {
    auto s = make_scenario(params, 1, 2);
    RunOptions opt;
    opt.strategy = PlacementStrategy::kRealTime;
    FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                  opt);
    if (elastic) {
      cluster::ActionPlan plan(*s.sim);
      plan.at(20.0, [&run] {
        auto type = cluster::c1_xlarge();
        type.cores = 2;
        type.boot_time = 5.0;
        run.add_vm(type);
      });
    }
    return run.run();
  };
  const auto base = run_with(false);
  const auto elastic = run_with(true);
  EXPECT_TRUE(base.all_completed());
  EXPECT_TRUE(elastic.all_completed());
  EXPECT_LT(elastic.makespan(), base.makespan());
  EXPECT_EQ(elastic.workers.size(), 4u);  // 2 original + 2 elastic
  // Elastic workers actually processed units.
  std::size_t elastic_units = 0;
  for (const auto& w : elastic.workers) {
    if (w.worker >= 2) elastic_units += w.units_completed;
  }
  EXPECT_GT(elastic_units, 0u);
}

TEST(Elasticity, AddVmWithSlowControlPlane) {
  // A control-plane latency above the dispatch overhead lets an elastic
  // VM's first dispatch wait on its ready signal before the master handles
  // AddWorkers.  Waiting must not count as staging: the master still stages
  // the VM and the run completes.
  auto params = small_load();
  params.mean_task_seconds = 5.0;
  auto s = make_scenario(params, 1, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.control_latency = 0.05;
  ASSERT_GT(opt.control_latency, opt.dispatch_overhead);
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::ActionPlan plan(*s.sim);
  plan.at(20.0, [&run] {
    auto type = cluster::c1_xlarge();
    type.cores = 2;
    type.boot_time = 5.0;
    run.add_vm(type);
  });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.workers.size(), 4u);
  std::size_t elastic_units = 0;
  for (const auto& w : report.workers) {
    if (w.worker >= 2) elastic_units += w.units_completed;
  }
  EXPECT_GT(elastic_units, 0u);
}

TEST(Elasticity, RemoveVmDrainsAndTerminates) {
  auto params = small_load();
  params.mean_task_seconds = 3.0;
  auto s = make_scenario(params, 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::ActionPlan plan(*s.sim);
  const auto victim = s.vms[1];
  plan.at(10.0, [&run, victim] { run.remove_vm(victim); });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
  EXPECT_EQ(s.cluster->vm(victim).state(), cluster::VmState::kTerminated);
  // Remaining units were finished by the surviving VM's workers.
  std::size_t survivor_units = 0;
  for (const auto& w : report.workers) {
    if (w.vm == s.vms[0]) survivor_units += w.units_completed;
    if (w.vm == victim) EXPECT_TRUE(w.drained);
  }
  EXPECT_GT(survivor_units, 20u);
}

TEST(Elasticity, ElasticWorkerGetsNothingInPrePartitionMode) {
  // The ablation behind design decision D2: pre-partitioning cannot absorb
  // elastic capacity because shares were fixed at staging time.
  auto params = small_load();
  params.mean_task_seconds = 5.0;
  auto s = make_scenario(params, 1, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::ActionPlan plan(*s.sim);
  plan.at(20.0, [&run] {
    auto type = cluster::c1_xlarge();
    type.cores = 2;
    type.boot_time = 5.0;
    run.add_vm(type);
  });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed());
  for (const auto& w : report.workers) {
    if (w.worker >= 2) EXPECT_EQ(w.units_completed, 0u);
  }
}

}  // namespace
}  // namespace frieda::core
