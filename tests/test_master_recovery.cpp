// Master failure and recovery (paper Section V.A: the master is a single
// point of failure; monitoring/recovery via the controller-master channel is
// future work — implemented here as FriedaRun::crash_master()).
#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
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
};

Scenario make_scenario(SyntheticParams params) {
  Scenario s;
  s.sim = std::make_unique<sim::Simulation>(5);
  s.cluster = std::make_unique<VirtualCluster>(*s.sim);
  auto type = cluster::c1_xlarge();
  type.boot_time = 0.0;
  type.cores = 2;
  s.cluster->provision(type, 2);
  s.app = std::make_unique<SyntheticModel>(params);
  s.units = PartitionGenerator::generate(PartitionScheme::kSingleFile, s.app->catalog());
  return s;
}

SyntheticParams transfer_heavy() {
  SyntheticParams params;
  params.file_count = 30;
  params.mean_file_bytes = 15 * MB;  // staging takes ~1.2 s per file alone
  params.mean_task_seconds = 2.0;
  return params;
}

RunReport run_with_crash(SimTime crash_at, SimTime recovery, SimTime second_crash = 0.0) {
  auto s = make_scenario(transfer_heavy());
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  if (crash_at > 0.0) {
    s.sim->schedule_at(crash_at, [&run, recovery] { run.crash_master(recovery); });
  }
  if (second_crash > 0.0) {
    s.sim->schedule_at(second_crash, [&run, recovery] { run.crash_master(recovery); });
  }
  return run.run();
}

TEST(MasterRecovery, RunCompletesAfterCrashMidRun) {
  const auto baseline = run_with_crash(0.0, 0.0);
  const auto crashed = run_with_crash(20.0, 15.0);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_TRUE(crashed.all_completed()) << crashed.summary();
  // The outage costs wall time but nothing is lost or double-counted.
  EXPECT_GT(crashed.makespan(), baseline.makespan());
  EXPECT_EQ(crashed.units_completed, crashed.units_total);
}

TEST(MasterRecovery, ExecutionPlaneSurvivesOutage) {
  // Workers that already hold assignments keep computing through the outage:
  // at least one unit must FINISH while the master is down (between t=20 and
  // t=35).
  const auto crashed = run_with_crash(20.0, 15.0);
  ASSERT_TRUE(crashed.all_completed());
  bool finished_during_outage = false;
  for (const auto& rec : crashed.units) {
    // ExecStatus is processed after recovery, so `finished` lands at the
    // recovery instant for those units.
    finished_during_outage |= rec.finished >= 34.9 && rec.finished <= 35.1;
  }
  EXPECT_TRUE(finished_during_outage);
}

TEST(MasterRecovery, MidStagingAssignmentsAreRedispatched) {
  const auto crashed = run_with_crash(20.0, 15.0);
  ASSERT_TRUE(crashed.all_completed());
  // Units whose staging the crash interrupted needed a second dispatch.
  bool redispatched = false;
  for (const auto& rec : crashed.units) redispatched |= rec.attempts > 1;
  EXPECT_TRUE(redispatched);
}

TEST(MasterRecovery, SurvivesRepeatedCrashes) {
  const auto crashed = run_with_crash(15.0, 10.0, /*second_crash=*/60.0);
  ASSERT_TRUE(crashed.all_completed()) << crashed.summary();
}

TEST(MasterRecovery, CrashAfterCompletionIsNoOp) {
  auto s = make_scenario(transfer_heavy());
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  s.sim->schedule_at(100000.0, [&run] { run.crash_master(10.0); });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed());
}

TEST(MasterRecovery, RecoveryDelayMustBeFinite) {
  // A master that never comes back would park the clock at infinity.
  auto s = make_scenario(transfer_heavy());
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                RunOptions{});
  EXPECT_THROW(run.crash_master(std::numeric_limits<double>::infinity()), FriedaError);
  EXPECT_THROW(run.crash_master(std::numeric_limits<double>::quiet_NaN()), FriedaError);
  EXPECT_THROW(run.crash_master(-1.0), FriedaError);
}

TEST(MasterRecovery, ZeroDelayRecoveryIsSeamless) {
  const auto crashed = run_with_crash(20.0, 0.0);
  const auto baseline = run_with_crash(0.0, 0.0);
  ASSERT_TRUE(crashed.all_completed());
  // Instant restart costs at most the re-dispatch of mid-staging units.
  EXPECT_LT(crashed.makespan(), baseline.makespan() * 1.25);
}

TEST(MasterRecovery, WorksUnderPrePartitioning) {
  auto s = make_scenario(transfer_heavy());
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  // Crash during the execution phase (staging of ~450 MB takes ~36 s).
  s.sim->schedule_at(45.0, [&run] { run.crash_master(5.0); });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
}

}  // namespace
}  // namespace frieda::core
