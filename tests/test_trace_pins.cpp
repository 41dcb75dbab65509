// Pins of the exported traces.  Sixteen traced simulator runs — ALS and BLAST
// under every placement strategy, three fault runs and one open-loop elastic
// service run — are reduced to digests of their Chrome JSON, CSV and probe
// timeline exports, so any change to what a run traces, to how a value is
// formatted, or to the order of its events shows up here.  Together the runs
// cover every event kind the engine, the probe and the network emit.
//
// The threaded runtime reads the wall clock, so its traces are pinned by
// structure instead: the sorted multiset of (cat, name without digits,
// process, arg keys) per event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/rt_engine.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace frieda {
namespace {

using core::PlacementStrategy;

std::string digest(const std::string& text) {
  StableHasher h;
  h.mix_str(text);
  return h.digest().to_hex();
}

/// The kind of an event: its category and the first word of its name.
std::string kind_of(const obs::TraceEvent& ev) {
  return ev.cat + "/" + ev.name.substr(0, ev.name.find(' '));
}

struct Pin {
  const char* run;
  const char* json;
  const char* csv;
  const char* timeline;  ///< "" when the run has no probe
};

struct Traced {
  obs::Tracer tracer;
  std::unique_ptr<obs::TelemetryProbe> probe;
};

const PlacementStrategy kStrategies[] = {
    PlacementStrategy::kNoPartitionCommon, PlacementStrategy::kPrePartitionLocal,
    PlacementStrategy::kPrePartitionRemote, PlacementStrategy::kRealTime,
    PlacementStrategy::kRemoteRead,        PlacementStrategy::kSharedVolume};

workload::PaperScenarioOptions paper_opt(double scale, Traced& t) {
  workload::PaperScenarioOptions opt;
  opt.scale = scale;
  opt.use_execution_templates = false;  // trace bytes independent of run order
  opt.tracer = &t.tracer;
  opt.telemetry = t.probe.get();
  return opt;
}

// A small synthetic farm on 2-core VMs that boot instantly, for the fault runs.
struct FaultRun {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::unique_ptr<workload::SyntheticModel> app;
  std::vector<core::WorkUnit> units;
  std::vector<cluster::VmId> vms;
  cluster::InstanceType type;
};

FaultRun make_fault_run(std::uint64_t seed, std::size_t vms, Bytes disk, Bytes file_bytes,
                        double task_seconds) {
  FaultRun s;
  s.sim = std::make_unique<sim::Simulation>(seed);
  s.cluster = std::make_unique<cluster::VirtualCluster>(*s.sim);
  s.type = cluster::c1_xlarge();
  s.type.boot_time = 0.0;
  s.type.cores = 2;
  s.type.disk_capacity = disk;
  s.vms = s.cluster->provision(s.type, vms);
  workload::SyntheticParams params;
  params.file_count = 30;
  params.mean_file_bytes = file_bytes;
  params.mean_task_seconds = task_seconds;
  params.output_bytes = 0;
  s.app = std::make_unique<workload::SyntheticModel>(params);
  s.units =
      core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile, s.app->catalog());
  return s;
}

void run_fault(Traced& t, FaultRun& s, bool requeue,
               const std::function<void(FaultRun&, core::FriedaRun&)>& arrange) {
  core::RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = requeue;
  opt.tracer = &t.tracer;
  core::FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app,
                      core::CommandTemplate("app $inp1"), opt);
  arrange(s, run);
  EXPECT_TRUE(run.run().all_completed());
}

using TracedRuns = std::vector<std::pair<std::string, std::unique_ptr<Traced>>>;

TracedRuns run_all() {
  TracedRuns out;
  const auto add = [&](std::string name, bool probed) {
    auto t = std::make_unique<Traced>();
    if (probed) {
      obs::TelemetryOptions topt;
      topt.interval = 5.0;
      t->probe = std::make_unique<obs::TelemetryProbe>(topt);
    }
    out.emplace_back(std::move(name), std::move(t));
    return out.back().second.get();
  };
  for (const auto s : kStrategies) {
    auto* t = add(std::string("als-") + core::to_string(s), true);
    workload::run_als(s, paper_opt(0.02, *t));
  }
  for (const auto s : kStrategies) {
    auto* t = add(std::string("blast-") + core::to_string(s), false);
    workload::run_blast(s, paper_opt(0.01, *t));
  }
  {  // A VM dies mid-transfer with requeue on; one VM joins, another drains.
    auto* t = add("fault-isolate-add-remove", false);
    auto s = make_fault_run(7, 3, 100 * GiB, 15 * MB, 2.0);
    run_fault(*t, s, true, [](FaultRun& f, core::FriedaRun& run) {
      cluster::FailureInjector injector(*f.cluster);
      injector.schedule(f.vms[1], 5.0);
      f.sim->schedule_at(8.0, [&f, &run] { run.add_vm(f.type); });
      f.sim->schedule_at(12.0, [&f, &run] { run.remove_vm(f.vms[2]); });
    });
  }
  {  // A disk that holds ~4 of 30 inputs: evictions.
    auto* t = add("fault-evict", false);
    auto s = make_fault_run(21, 2, 40 * MB, 10 * MB, 1.0);
    run_fault(*t, s, false, [](FaultRun&, core::FriedaRun&) {});
  }
  {  // The master dies mid-staging and recovers.
    auto* t = add("fault-master-crash", false);
    auto s = make_fault_run(5, 2, 100 * GiB, 15 * MB, 2.0);
    run_fault(*t, s, false, [](FaultRun& f, core::FriedaRun& run) {
      f.sim->schedule_at(20.0, [&run] { run.crash_master(15.0); });
    });
  }
  {  // Open-loop bursty arrivals, reactive elasticity, two SLO targets.
    auto* t = add("service-bursty-elastic", false);
    obs::TelemetryOptions topt;
    topt.interval = 2.0;
    topt.slo.push_back({"latency_p99", 10.0});
    topt.slo.push_back({"queue_depth", 6.0});
    t->probe = std::make_unique<obs::TelemetryProbe>(topt);
    auto opt = paper_opt(0.01, *t);
    opt.service.open_loop = true;
    opt.service.arrivals.kind = workload::ArrivalKind::kBursty;
    opt.service.arrivals.rate = 8.0;
    opt.service.arrivals.seed = 42;
    opt.service.elastic.enabled = true;
    opt.service.elastic.scale_out_depth = 8;
    opt.service.elastic.scale_in_depth = 2;
    opt.service.elastic.check_interval = 2.0;
    opt.service.elastic.hysteresis = 1;
    opt.service.elastic.max_extra_vms = 4;
    workload::run_blast(PlacementStrategy::kRealTime, opt);
  }
  return out;
}

const TracedRuns& traced_runs() {
  static const TracedRuns runs = run_all();
  return runs;
}

const Pin kPins[] = {
    {"als-no-partition-common",
     "24f6f796af64e3f6cbeb380d72cd3edc",
     "76af4b7e680e5bc2868755226b0bcc2f",
     "9b6cf82cf7f9dc3d335abab7bfc9cbb9"},
    {"als-pre-partition-local",
     "2036fe7d837737fdbc302ddf56604220",
     "2b3d65481dbb520d1aae2c55ab9bf468",
     "63d5e89afa0a732fca3ff22b76b262be"},
    {"als-pre-partition-remote",
     "db40e044b0179dc6dd5f49d852ace462",
     "891f11662272cee9348e9c8299928a28",
     "6d19f7169b08158ee75dda9b0b9259b0"},
    {"als-real-time",
     "a9ac0863ceb5b7b19f075b5a888dc941",
     "fc866ccdb97a07d50cda1fcaa2a9b05c",
     "2c76498b3b0dc55bdb4239897be6ac76"},
    {"als-remote-read",
     "c77730ac55bb6a6d710522b06936ff0d",
     "946d84780c6c9aff99fbf8efabe00d5d",
     "b8a1ee51c21ce31023e66b212aeff49b"},
    {"als-shared-volume",
     "f118470f41a9cf3f8d63128f3cf20b6d",
     "6fb3905dd35d810111bcd861179b64b6",
     "b8a1ee51c21ce31023e66b212aeff49b"},
    {"blast-no-partition-common",
     "0e85eb31ac7258955592687feac880cb",
     "075c48b4eed21c482ad167ed5622ade3",
     ""},
    {"blast-pre-partition-local",
     "07c32f7abc3b4e7dd7eef36119705589",
     "f6a0f0e6ed62c2320530ec18e8d3b042",
     ""},
    {"blast-pre-partition-remote",
     "b64e11c4ddd54fe8bce33ea933aaa27a",
     "88991162c59a3dea672542b016d319a2",
     ""},
    {"blast-real-time",
     "5348b292fac52293e52fcb27690f4912",
     "424b267cac358b7431395f761b1f78d8",
     ""},
    {"blast-remote-read",
     "d405e0304e41102c47bc553ee546e55c",
     "4b1754ef92a4550e805fbac5c0ae6cc7",
     ""},
    {"blast-shared-volume",
     "8ce55eb100f6a0cf789e14fbc144df20",
     "25667b3e65174dfddd56c8e46305502d",
     ""},
    {"fault-isolate-add-remove",
     "e712433373acf074341be0ad8c4907be",
     "7d22d229f64b2f69f9365541cd12aa46",
     ""},
    {"fault-evict",
     "0d60bfc33446ac5f918fef62bbb91e89",
     "3b4befec160ced125e22ea8a5446359f",
     ""},
    {"fault-master-crash",
     "3cc6801549b2573b2056365d44a5bafe",
     "9e9c6318e5842bda7ee1c5bda50505e5",
     ""},
    {"service-bursty-elastic",
     "4f857f8aad7fa25f2fa04ecacdc5f93b",
     "75b03af6ba7832fbc44b8ca2ca89f5a0",
     "b02817edfa4c5b911add0d54767f7ce9"},
};

TEST(TracePins, ExportsOfSixteenRunsAreByteStable) {
  const auto& runs = traced_runs();
  ASSERT_EQ(runs.size(), 16u);
  for (const auto& [name, t] : runs) {
    const Pin* pin = nullptr;
    for (const auto& p : kPins) {
      if (name == p.run) pin = &p;
    }
    const std::string timeline = t->probe ? digest(t->probe->timeline_csv()) : "";
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin for " << name;
      continue;
    }
    EXPECT_EQ(digest(t->tracer.chrome_json()), pin->json) << name;
    EXPECT_EQ(digest(t->tracer.csv()), pin->csv) << name;
    EXPECT_EQ(timeline, pin->timeline) << name;
  }
}

TEST(TracePins, SixteenRunsCoverEveryEventKind) {
  std::set<std::string> kinds;
  for (const auto& [name, t] : traced_runs()) {
    for (const auto& ev : t->tracer.events()) kinds.insert(kind_of(ev));
  }
  const std::set<std::string> expected = {
      "control/evict",
      "control/requeue",
      "exec/exec",
      "flow/xfer",
      "pending/pending",
      "protocol/add-workers",
      "protocol/drain-worker",
      "protocol/fork-workers",
      "protocol/isolate-worker",
      "protocol/master-crash",
      "protocol/master-recover",
      "protocol/start-master",
      "run/run",
      "service/arrival",
      "service/scale-in",
      "service/scale-out",
      "slo/slo-breach",
      "staging/remote-read",
      "staging/stage",
      "staging/stage-common",
      "staging/stage-node",
      "telemetry/active_vms",
      "telemetry/active_workers",
      "telemetry/completed",
      "telemetry/in_flight",
      "telemetry/latency_p50",
      "telemetry/latency_p95",
      "telemetry/latency_p99",
      "telemetry/net_solves",
      "telemetry/queue_depth",
      "telemetry/scale_ins",
      "telemetry/scale_outs",
      "telemetry/throughput",
      "unit/unit",
  };
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(kinds.size(), 34u);
}

/// One line per distinct (cat, name without digits, process, arg keys), with
/// its multiplicity, sorted.
std::string structure_of(const obs::Tracer& tracer) {
  std::multiset<std::string> shapes;
  for (const auto& ev : tracer.events()) {
    std::string name = ev.name;
    name.erase(std::remove_if(name.begin(), name.end(),
                              [](unsigned char c) { return std::isdigit(c); }),
               name.end());
    std::string shape = ev.cat + "|" + name + "|" + std::to_string(ev.process) + "|";
    for (const auto& a : ev.args) shape += a.key + ",";
    shapes.insert(shape);
  }
  std::string out;
  for (auto it = shapes.begin(); it != shapes.end(); it = shapes.upper_bound(*it)) {
    out += std::to_string(shapes.count(*it)) + " " + *it + "\n";
  }
  return out;
}

std::string rt_structure(PlacementStrategy strategy) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(testing::TempDir()) / ("frieda_trace_pins_rt_" + std::to_string(::getpid()));
  fs::remove_all(root);
  rt::make_dataset((root / "source").string(), 6, 32 * KiB, 5);
  obs::Tracer tracer;
  // One sample at the end of the run only, and a target that never breaches,
  // so the probe's share of the trace does not depend on the wall clock.
  obs::TelemetryOptions topt;
  topt.interval = 3600.0;
  topt.slo.push_back({"queue_depth", 1e9});
  obs::TelemetryProbe probe(topt);
  rt::RtOptions opt;
  opt.strategy = strategy;
  opt.worker_count = 2;
  opt.staging_root = (root / "staging").string();
  opt.tracer = &tracer;
  opt.telemetry = &probe;
  rt::RtEngine engine((root / "source").string(), opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("app $inp1"),
      [](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
        return true;
      });
  EXPECT_TRUE(report.all_completed());
  fs::remove_all(root);
  return structure_of(tracer);
}

TEST(TracePins, ThreadedRuntimeTraceStructure) {
  // Real-time workers stage each unit's inputs themselves; pre-partition-remote
  // stages them before the farm starts, outside any worker span.
  EXPECT_EQ(rt_structure(PlacementStrategy::kRealTime),
      "6 exec|exec unit |2|unit,ok,\n"
      "2 protocol|register-worker|1|worker,\n"
      "2 protocol|release-worker|1|worker,\n"
      "1 run|run|1|workers,slo_breaches,slo_violation_s,\n"
      "6 staging|stage unit |2|unit,\n"
      "1 telemetry|active_vms|5|active_vms,\n"
      "1 telemetry|active_workers|5|active_workers,\n"
      "1 telemetry|completed|5|completed,\n"
      "1 telemetry|in_flight|5|in_flight,\n"
      "1 telemetry|latency_p|5|latency_p50,\n"
      "1 telemetry|latency_p|5|latency_p95,\n"
      "1 telemetry|latency_p|5|latency_p99,\n"
      "1 telemetry|net_solves|5|net_solves,\n"
      "1 telemetry|queue_depth|5|queue_depth,\n"
      "1 telemetry|scale_ins|5|scale_ins,\n"
      "1 telemetry|scale_outs|5|scale_outs,\n"
      "1 telemetry|throughput|5|throughput,\n"
      "6 unit|unit |3|worker,ok,\n");
  EXPECT_EQ(rt_structure(PlacementStrategy::kPrePartitionRemote),
      "6 exec|exec unit |2|unit,ok,\n"
      "2 protocol|register-worker|1|worker,\n"
      "2 protocol|release-worker|1|worker,\n"
      "1 run|run|1|workers,slo_breaches,slo_violation_s,\n"
      "1 telemetry|active_vms|5|active_vms,\n"
      "1 telemetry|active_workers|5|active_workers,\n"
      "1 telemetry|completed|5|completed,\n"
      "1 telemetry|in_flight|5|in_flight,\n"
      "1 telemetry|latency_p|5|latency_p50,\n"
      "1 telemetry|latency_p|5|latency_p95,\n"
      "1 telemetry|latency_p|5|latency_p99,\n"
      "1 telemetry|net_solves|5|net_solves,\n"
      "1 telemetry|queue_depth|5|queue_depth,\n"
      "1 telemetry|scale_ins|5|scale_ins,\n"
      "1 telemetry|scale_outs|5|scale_outs,\n"
      "1 telemetry|throughput|5|throughput,\n"
      "6 unit|unit |3|worker,ok,\n");
}

}  // namespace
}  // namespace frieda
