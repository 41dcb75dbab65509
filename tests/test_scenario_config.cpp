// Tests of the declarative scenario runner.
#include "workload/scenario_config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace frieda::workload {
namespace {

TEST(ScenarioConfig, MinimalSyntheticRun) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 2
    [workload]
    kind = synthetic
    files = 20
    file_mb = 1
    task_s = 1
    [run]
    strategy = real-time
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.units_total, 20u);
  EXPECT_EQ(report.workers.size(), 4u);
  EXPECT_EQ(report.strategy, "real-time");
}

TEST(ScenarioConfig, DefaultsGiveFullRun) {
  const auto report = run_scenario_text("[workload]\nfiles = 8\ntask_s = 0.5\n");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.workers.size(), 16u);  // 4 VMs x 4 cores defaults
}

TEST(ScenarioConfig, StrategyAndSchemeSelection) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 1
    [workload]
    files = 12
    file_mb = 1
    task_s = 0.2
    [run]
    strategy = pre-partition-local
    scheme = pairwise-adjacent
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.units_total, 6u);
  EXPECT_EQ(report.scheme, "pairwise-adjacent");
  EXPECT_EQ(report.bytes_moved, 0u);  // local data, nothing crossed the wire
}

TEST(ScenarioConfig, AlsAndBlastKinds) {
  const auto als = run_scenario_text(R"(
    [workload]
    kind = als
    scale = 0.02
  )");
  EXPECT_TRUE(als.all_completed());
  EXPECT_EQ(als.app, "als-image-compare");
  EXPECT_EQ(als.scheme, "pairwise-adjacent");  // workload-appropriate default

  const auto blast = run_scenario_text(R"(
    [workload]
    kind = blast
    scale = 0.01
  )");
  EXPECT_TRUE(blast.all_completed());
  EXPECT_EQ(blast.app, "blast");
  EXPECT_EQ(blast.units_total, 75u);
}

TEST(ScenarioConfig, FailureEventsApply) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 2
    [workload]
    files = 40
    file_mb = 1
    task_s = 2
    [run]
    strategy = real-time
    requeue = true
    [events]
    fail = 1@5
  )");
  EXPECT_TRUE(report.all_completed());  // requeue recovers the lost units
  EXPECT_EQ(report.workers_isolated, 2u);
}

TEST(ScenarioConfig, ElasticAndMasterCrashEvents) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 1
    cores = 2
    [workload]
    files = 40
    file_mb = 1
    task_s = 2
    [run]
    strategy = real-time
    [events]
    add_vms_at = 10
    add_vms = 1
    master_crash_at = 15
    master_recovery_s = 5
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.workers.size(), 4u);  // 2 original + 2 elastic
}

TEST(ScenarioConfig, BadValuesThrow) {
  EXPECT_THROW(run_scenario_text("[workload]\nkind = hadoop\n"), FriedaError);
  EXPECT_THROW(run_scenario_text("[run]\nstrategy = teleport\n"), FriedaError);
  EXPECT_THROW(run_scenario_text("[run]\nscheme = zigzag\n"), FriedaError);
  EXPECT_THROW(run_scenario_text("[events]\nfail = banana\n"), FriedaError);
  EXPECT_THROW(run_scenario_text("[events]\nfail = 99@10\n"), FriedaError);
}

/// Expect `text` to be rejected with a FriedaError that names `key`.
void expect_count_rejected(const std::string& text, const std::string& key) {
  try {
    run_scenario_text(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const FriedaError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(ScenarioConfig, NegativeCountsAreRejectedByName) {
  // Cast unchecked, each of these wraps into a huge count: vms/files then
  // throw std::length_error, streams/cores/add_vms run without end.
  expect_count_rejected("[cluster]\nvms = -1\n", "cluster.vms");
  expect_count_rejected("[cluster]\ncores = -2\n", "cluster.cores");
  expect_count_rejected("[workload]\nfiles = -3\n", "workload.files");
  expect_count_rejected("[run]\nstreams = -1\n", "run.streams");
  expect_count_rejected("[events]\nadd_vms_at = 5\nadd_vms = -1\n", "events.add_vms");
  const std::string reactive = "[service]\narrivals = poisson\nelastic_policy = reactive\n";
  expect_count_rejected(reactive + "scale_out_depth = -1\n", "service.scale_out_depth");
  expect_count_rejected(reactive + "scale_in_depth = -1\n", "service.scale_in_depth");
  expect_count_rejected(reactive + "hysteresis = -1\n", "service.hysteresis");
  expect_count_rejected(reactive + "max_extra_vms = -1\n", "service.max_extra_vms");
}

TEST(ScenarioConfig, CountsBeyondTheTargetTypeAreRejectedByName) {
  // 2^32 does not fit the unsigned core/stream counts; 2^31 does not fit
  // the int hysteresis window.
  expect_count_rejected("[cluster]\ncores = 4294967296\n", "cluster.cores");
  expect_count_rejected("[run]\nstreams = 4294967296\n", "run.streams");
  expect_count_rejected(
      "[service]\narrivals = poisson\nelastic_policy = reactive\nhysteresis = 2147483648\n",
      "service.hysteresis");
}

TEST(ScenarioConfig, NicRatesMustBeFiniteAndPositive) {
  // strtod accepts "inf": an infinite NIC used to reach the solver, which
  // failed without naming the key (or, on the storage NIC, was accepted).
  for (const std::string v : {"inf", "nan", "0", "-5"}) {
    expect_count_rejected("[cluster]\nnic_mbps = " + v + "\n", "cluster.nic_mbps");
    expect_count_rejected("[cluster]\nstorage_nic_mbps = " + v + "\n",
                          "cluster.storage_nic_mbps");
  }
}

TEST(ScenarioConfig, SizesTimesAndSpreadsMustBeFiniteAndNonNegative) {
  // Cast unchecked into unsigned byte counts, a negative or NaN size used to
  // run as the default disk, or fail every unit; an infinite spread moved
  // 74 B.  Keys whose bad value would hang the run are covered by ctest.
  for (const std::string v : {"-1", "nan", "inf"}) {
    expect_count_rejected("[cluster]\ndisk_gib = " + v + "\n", "cluster.disk_gib");
    expect_count_rejected("[workload]\nfile_mb = " + v + "\n", "workload.file_mb");
    expect_count_rejected("[workload]\nfile_cv = " + v + "\n", "workload.file_cv");
    expect_count_rejected("[workload]\ntask_cv = " + v + "\n", "workload.task_cv");
    expect_count_rejected("[workload]\ncommon_mb = " + v + "\n", "workload.common_mb");
    expect_count_rejected("[workload]\noutput_kb = " + v + "\n", "workload.output_kb");
  }
  expect_count_rejected("[cluster]\nboot_s = -1\n", "cluster.boot_s");
  expect_count_rejected("[events]\nfail = 1@inf\n", "events.fail");
}

TEST(ScenarioConfig, ScaleMustBeFiniteAndPositive) {
  // A negative or NaN BLAST scale used to abort with std::length_error; an
  // infinite ALS scale silently ran one unit.
  expect_count_rejected("[workload]\nkind = blast\nscale = -1\n", "workload.scale");
  expect_count_rejected("[workload]\nkind = blast\nscale = nan\n", "workload.scale");
  expect_count_rejected("[workload]\nkind = als\nscale = inf\n", "workload.scale");
}

TEST(ScenarioConfig, SharedVolumeStrategyProvisionsStorage) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 1
    [workload]
    files = 10
    file_mb = 2
    task_s = 0.5
    [run]
    strategy = shared-volume
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.strategy, "shared-volume");
}

TEST(ScenarioConfig, StreamsAndLocalityKnobs) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 1
    [workload]
    files = 10
    file_mb = 4
    task_s = 0.5
    [run]
    strategy = real-time
    streams = 4
    locality_aware = true
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.bytes_moved, 10u * 4 * 1000 * 1000);
}

TEST(ScenarioConfig, ServiceModeRunsOpenLoop) {
  const auto report = run_scenario_text(R"(
    [cluster]
    vms = 2
    cores = 2
    [workload]
    files = 30
    file_mb = 1
    task_s = 1
    [run]
    strategy = real-time
    [service]
    arrivals = poisson
    arrival_rate = 5
    arrival_seed = 9
    elastic_policy = reactive
    scale_out_depth = 6
    scale_in_depth = 1
    check_interval_s = 1
    hysteresis = 1
  )");
  EXPECT_TRUE(report.all_completed());
  EXPECT_TRUE(report.open_loop);
  EXPECT_EQ(report.latency.count(), report.units_completed);
  EXPECT_GT(report.latency_p(95.0), 0.0);
  EXPECT_GT(report.sustained_throughput(), 0.0);
}

TEST(ScenarioConfig, ServiceModeBadValuesThrow) {
  EXPECT_THROW(run_scenario_text("[service]\narrivals = weibull\n"), FriedaError);
  EXPECT_THROW(run_scenario_text("[service]\nelastic_policy = psychic\n"), FriedaError);
  EXPECT_THROW(run_scenario_text(R"(
    [service]
    arrivals = poisson
    arrival_rate = -2
  )"),
               FriedaError);
  // Reactive elasticity is meaningless without arrivals; the config says so.
  EXPECT_THROW(run_scenario_text("[service]\nelastic_policy = reactive\n"), FriedaError);
}

}  // namespace
}  // namespace frieda::workload
