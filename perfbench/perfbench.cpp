// Layered end-to-end benchmark driver for the FRIEDA simulator.
//
//   perfbench --workload <name> --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Workloads (each loads a different part of the system):
//   blast_batch    closed batch of 1,000 BLAST units on 20 single-core VMs
//                  in racks of 10, pre-partition-local placement.  Bound by the
//                  event engine, coroutines and master dispatch; makes no
//                  network solves.  Builds FriedaRun directly (no templates).
//   als_network    closed batch of ALS real-time work at half the paper's
//                  size (312 units, 624 transfers) on 32 VMs x 4 cores
//                  behind the paper's 100 Mbps NICs.  Every transfer re-solves the component of
//                  classes sharing the source NIC: bound by the max-min solver.
//   service_sweep  27 open-loop BLAST service cells of 750 queries each (a
//                  tenth of the paper's) through exp::ScenarioSweep
//                  on 2 threads: real-time strategy, reactive elasticity,
//                  bursty arrivals at 1.5, 2.5 and 4.0 units/s with 8 seeds
//                  per rate, plus 3 exact duplicates of earlier cells.  The
//                  only workload that exercises the sweep pool, the result
//                  cache, execution templates, the arrival pump and elasticity.
//
// Every layer call is timed from outside, through the public API only.  A
// run repeats the workload (one untimed warm-up, then repetitions until
// --seconds have passed).  The workloads are sized so that one repetition
// takes a few milliseconds (tens for the sweep): a run holds hundreds to
// thousands of them, and the end-to-end timings report the fastest (see
// main).  With --trace 0 every observer stays detached and the end-to-end
// metrics are reported.  With
// --trace 1 untraced and traced repetitions alternate: traced ones attach a
// MetricsRegistry (batch workloads), record spans around every layer call,
// and give the per-layer metrics; the spans are written as Chrome-trace JSON
// and a per-layer table when the run ends.
//
// Every repetition is checked: each unit reaches exactly one terminal state
// and all complete, open-loop latency samples equal completions, duplicate
// cells equal their twins field for field, and simulated results and counts
// repeat exactly across repetitions.  Any violation makes the run incorrect
// and counts the repetition's units as failed.
//
// The last line of stdout is one JSON object; run.py wraps it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "exp/grid.hpp"
#include "frieda/partition.hpp"
#include "frieda/report_io.hpp"
#include "frieda/run.hpp"
#include "frieda/template.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "workload/blast.hpp"
#include "workload/image_compare.hpp"
#include "workload/scenarios.hpp"

using namespace frieda;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory by traced repetitions, written out at the end.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

class Spans {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }
  void add(std::string name, int parent, Clock::time_point a, Clock::time_point b) {
    spans_.push_back({std::move(name), parent, a, b});
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One repetition of a workload.
// ---------------------------------------------------------------------------

struct Rep {
  double setup_s = 0.0;            // host seconds before the first simulated event
  double wall_s = 0.0;             // host seconds of FriedaRun::run / ScenarioSweep::run
  double units_simulated = 0.0;    // units completed by runs that executed
  std::uint64_t attempted = 0;     // units of every report served
  std::uint64_t completed = 0;
  double makespan_s = 0.0;         // simulated
  double p99_s = 0.0;              // simulated sojourn p99
  std::map<std::string, double> time;            // layer host seconds
  std::map<std::string, std::uint64_t> count;    // exact counts
  std::map<std::string, std::uint64_t> loose;    // interleaving-dependent counts
  double ratio_pool_busy = 0.0;
  std::uint64_t digest = 0;        // of every simulated result, field by field
  std::vector<std::uint64_t> cell_digests;  // service_sweep: one per job
  std::vector<std::string> errors;
};

// Times one call into a layer; adds a span under `parent` when tracing.
template <typename F>
auto layer(Rep& rep, Spans* spans, int parent, const char* name, F&& fn) {
  const auto a = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const auto b = Clock::now();
    rep.time[name] += seconds_between(a, b);
    if (spans != nullptr) spans->add(name, parent, a, b);
  } else {
    auto result = fn();
    const auto b = Clock::now();
    rep.time[name] += seconds_between(a, b);
    if (spans != nullptr) spans->add(name, parent, a, b);
    return result;
  }
}

std::uint64_t report_digest(const core::RunReport& r) {
  const auto d = StableHasher().mix_str(core::serialize_run_report(r)).digest();
  return d.hi ^ d.lo;
}

std::uint64_t combine(std::uint64_t acc, std::uint64_t v) {
  const auto d = StableHasher().mix_u64(acc).mix_u64(v).digest();
  return d.hi ^ d.lo;
}

void check_report(Rep& rep, const core::RunReport& r, const std::string& what,
                  std::size_t expected_units) {
  auto fail = [&](const std::string& msg) { rep.errors.push_back(what + ": " + msg); };
  if (r.units_total != expected_units) {
    fail("units_total " + std::to_string(r.units_total) + " != " +
         std::to_string(expected_units));
  }
  if (r.units_completed + r.units_failed + r.units_unprocessed != r.units_total) {
    fail("completed + failed + unprocessed != attempted");
  }
  if (r.units_completed != r.units_total) {
    fail(std::to_string(r.units_total - r.units_completed) + " units did not complete");
  }
  if (r.open_loop && r.latency.count() != r.units_completed) {
    fail("latency samples " + std::to_string(r.latency.count()) + " != completed " +
         std::to_string(r.units_completed));
  }
  if (!(r.makespan() > 0.0)) fail("non-positive makespan");
  rep.attempted += r.units_total;
  rep.completed += r.units_completed;
}

// p99 sojourn of a closed batch: every unit arrives when the run starts.
double batch_p99(const core::RunReport& r) {
  SampleSet s;
  for (const auto& u : r.units) {
    if (u.status == core::UnitStatus::kCompleted) s.add(u.finished - r.start_time);
  }
  return s.count() > 0 ? s.percentile(99.0) : 0.0;
}

std::uint64_t counter_value(const obs::MetricsRegistry& m, const char* name) {
  const auto* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::uint64_t gauge_value(const obs::MetricsRegistry& m, const char* name) {
  const auto* g = m.find_gauge(name);
  return g != nullptr ? static_cast<std::uint64_t>(g->value()) : 0;
}

// Network solver counters read back through the registry (public hook).
void registry_counts(Rep& rep, const obs::MetricsRegistry& m) {
  rep.count["net.flows_coalesced"] += counter_value(m, "net.flows_coalesced");
  rep.count["frieda.evictions"] += counter_value(m, "run.evictions");
  rep.count["sim.events"] += gauge_value(m, "sim.events_fired");
  rep.count["net.solves_registry"] += counter_value(m, "net.solver_invocations");
}

// ---------------------------------------------------------------------------
// blast_batch
// ---------------------------------------------------------------------------

constexpr std::size_t kBlastUnits = 1'000;
constexpr std::size_t kBlastVms = 20;
constexpr std::size_t kRackSize = 10;

Rep run_blast_batch(std::uint64_t seed, Spans* spans, bool attach) {
  Rep rep;
  const int root = spans != nullptr ? spans->open("blast_batch", -1) : -1;
  const auto t0 = Clock::now();

  auto params = workload::BlastParams::paper();
  params.sequence_count = kBlastUnits;
  params.seed = exp::derive_seed(seed, 1);
  const auto app = layer(rep, spans, root, "workload.model_build",
                         [&] { return std::make_unique<workload::BlastModel>(params); });

  sim::Simulation sim(exp::derive_seed(seed, 2));
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::vector<cluster::VmId> vms;
  layer(rep, spans, root, "cluster.provision", [&] {
    cluster::ClusterOptions copts;
    copts.source_nic_up = gbps(10);
    copts.source_nic_down = gbps(10);
    cluster = std::make_unique<cluster::VirtualCluster>(sim, copts);
    auto type = cluster::c1_xlarge();
    type.cores = 1;
    type.nic_up = gbps(1);
    type.nic_down = gbps(1);
    type.boot_time = 0.0;
    vms = cluster->provision(type, kBlastVms);
    auto& topo = cluster->network().topology();
    for (std::size_t i = 0; i < vms.size(); ++i) {
      topo.set_rack(cluster->vm(vms[i]).node(), static_cast<net::RackId>(i / kRackSize));
    }
    for (net::RackId r = 0; r * kRackSize < vms.size(); ++r) topo.set_rack_uplink(r, gbps(40));
  });

  auto units = layer(rep, spans, root, "frieda.partition", [&] {
    return core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                              app->catalog());
  });

  obs::MetricsRegistry metrics;
  auto run = layer(rep, spans, root, "frieda.run_init", [&] {
    core::RunOptions ropt;
    ropt.strategy = core::PlacementStrategy::kPrePartitionLocal;
    ropt.scheme = core::PartitionScheme::kSingleFile;
    ropt.multicore = true;
    if (attach) ropt.metrics = &metrics;
    auto r = std::make_unique<core::FriedaRun>(
        *cluster, app->catalog(), std::move(units), *app,
        core::CommandTemplate("blastall -p blastp -d /data/db $inp1"), ropt);
    r->pre_place_partitions(vms);
    return r;
  });
  rep.setup_s = seconds_between(t0, Clock::now());

  const auto report = layer(rep, spans, root, "frieda.run", [&] { return run->run(); });
  rep.wall_s = rep.time["frieda.run"];
  if (spans != nullptr) spans->close(root);

  check_report(rep, report, "blast_batch", kBlastUnits);
  rep.units_simulated = static_cast<double>(report.units_completed);
  rep.makespan_s = report.makespan();
  rep.p99_s = batch_p99(report);
  rep.digest = report_digest(report);
  const auto& netw = cluster->network();
  rep.count["sim.events_processed"] = sim.events_processed();
  rep.count["net.solves"] = netw.solver_invocations();
  rep.count["net.full_solves"] = netw.solver_full_solves();
  rep.count["net.dirty_classes"] = netw.solver_dirty_classes();
  rep.count["net.transfers"] = report.transfers;
  rep.count["net.bytes_moved"] = report.bytes_moved;
  rep.count["frieda.scale_outs"] = report.scale_outs;
  rep.count["frieda.scale_ins"] = report.scale_ins;
  if (attach) registry_counts(rep, metrics);
  return rep;
}

// ---------------------------------------------------------------------------
// als_network
// ---------------------------------------------------------------------------

constexpr double kAlsScale = 0.5;
constexpr std::size_t kAlsVms = 32;

Rep run_als_network(std::uint64_t seed, Spans* spans, bool attach) {
  Rep rep;
  const int root = spans != nullptr ? spans->open("als_network", -1) : -1;
  const auto t0 = Clock::now();

  auto params = workload::ImageCompareParams::paper();
  params.image_count = static_cast<std::size_t>(static_cast<double>(params.image_count) * kAlsScale);
  params.seed = exp::derive_seed(seed, 1);
  const std::size_t expected_units = params.image_count / 2;  // pairwise-adjacent
  const auto app = layer(rep, spans, root, "workload.model_build", [&] {
    return std::make_unique<workload::ImageCompareModel>(params);
  });

  sim::Simulation sim(exp::derive_seed(seed, 2));
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::vector<cluster::VmId> vms;
  layer(rep, spans, root, "cluster.provision", [&] {
    cluster = std::make_unique<cluster::VirtualCluster>(sim);  // 100 Mbps source NIC
    auto type = cluster::c1_xlarge();
    type.boot_time = 0.0;
    vms = cluster->provision(type, kAlsVms);
  });

  auto units = layer(rep, spans, root, "frieda.partition", [&] {
    return core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent,
                                              app->catalog());
  });

  obs::MetricsRegistry metrics;
  auto run = layer(rep, spans, root, "frieda.run_init", [&] {
    core::RunOptions ropt;
    ropt.strategy = core::PlacementStrategy::kRealTime;
    ropt.scheme = core::PartitionScheme::kPairwiseAdjacent;
    ropt.multicore = true;
    if (attach) ropt.metrics = &metrics;
    return std::make_unique<core::FriedaRun>(*cluster, app->catalog(), std::move(units), *app,
                                             core::CommandTemplate("compare_images $inp1 $inp2"),
                                             ropt);
  });
  rep.setup_s = seconds_between(t0, Clock::now());

  const auto report = layer(rep, spans, root, "frieda.run", [&] { return run->run(); });
  rep.wall_s = rep.time["frieda.run"];
  if (spans != nullptr) spans->close(root);

  check_report(rep, report, "als_network", expected_units);
  rep.units_simulated = static_cast<double>(report.units_completed);
  rep.makespan_s = report.makespan();
  rep.p99_s = batch_p99(report);
  rep.digest = report_digest(report);
  const auto& netw = cluster->network();
  rep.count["sim.events_processed"] = sim.events_processed();
  rep.count["net.solves"] = netw.solver_invocations();
  rep.count["net.full_solves"] = netw.solver_full_solves();
  rep.count["net.dirty_classes"] = netw.solver_dirty_classes();
  rep.count["net.transfers"] = report.transfers;
  rep.count["net.bytes_moved"] = report.bytes_moved;
  rep.count["frieda.scale_outs"] = report.scale_outs;
  rep.count["frieda.scale_ins"] = report.scale_ins;
  if (attach) registry_counts(rep, metrics);
  return rep;
}

// ---------------------------------------------------------------------------
// service_sweep
// ---------------------------------------------------------------------------

constexpr double kServiceScale = 0.05;  // of the paper's 7,500 queries
constexpr double kServiceRates[] = {1.5, 2.5, 4.0};
constexpr std::size_t kSeedsPerRate = 8;
constexpr std::size_t kDuplicates = 3;
constexpr std::size_t kSweepThreads = 2;
constexpr double kTailRate = 2.5;  // sim_p99_s pools this rate's cells

struct Cell {
  double rate;
  workload::PaperScenarioOptions opt;
  std::optional<std::size_t> twin;  // index of the earlier cell a duplicate repeats
};

// The grid's cells in job order: rates x seeds, then the duplicates — exact
// copies of the first cell of each rate, the shared-baseline pattern the
// result cache exists for.
std::vector<Cell> service_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (const double rate : kServiceRates) {
    for (std::size_t k = 0; k < kSeedsPerRate; ++k) {
      const std::size_t index = cells.size();
      workload::PaperScenarioOptions opt;
      opt.scale = kServiceScale;
      opt.seed = exp::derive_seed(seed, 100 + index);
      opt.service.open_loop = true;
      opt.service.arrivals.kind = workload::ArrivalKind::kBursty;
      opt.service.arrivals.rate = rate;
      opt.service.arrivals.seed = exp::derive_seed(seed, 200 + index);
      opt.service.elastic.enabled = true;
      opt.service.elastic.scale_out_depth = 16;
      opt.service.elastic.scale_in_depth = 2;
      opt.service.elastic.check_interval = 5.0;
      opt.service.elastic.hysteresis = 2;
      opt.service.elastic.max_extra_vms = 4;
      cells.push_back({rate, opt, std::nullopt});
    }
  }
  for (std::size_t d = 0; d < kDuplicates; ++d) {
    const std::size_t orig = d * kSeedsPerRate;
    cells.push_back({cells[orig].rate, cells[orig].opt, orig});
  }
  return cells;
}

Rep run_service_sweep(std::uint64_t seed, Spans* spans, bool /*attach*/) {
  Rep rep;
  const int root = spans != nullptr ? spans->open("service_sweep", -1) : -1;
  auto& store = core::TemplateStore::global();
  store.clear();  // every repetition starts cold: one capture, then hits
  const auto hits0 = store.hits();
  const auto builds0 = store.builds();
  const auto patches0 = store.patches();
  const auto t0 = Clock::now();

  workload::PaperScenarioOptions base;
  base.scale = kServiceScale;
  const auto model = layer(rep, spans, root, "workload.model_build", [&] {
    return std::make_shared<const workload::BlastModel>(workload::make_blast_model(base));
  });
  const std::size_t expected_units = model->catalog().count();

  exp::SweepOptions sopt;
  sopt.threads = kSweepThreads;
  sopt.backend = exp::SweepBackend::kThread;
  exp::ScenarioSweep sweep(sopt);
  exp::ResultCache<core::RunReport> cache;  // per repetition: twins only, no cross-rep hits
  sweep.set_cache(&cache);
  sweep.set_calibrator(nullptr);  // identical dispatch order in every repetition
  const auto cells = service_cells(seed);
  layer(rep, spans, root, "exp.grid_build", [&] {
    for (const auto& c : cells) {
      sweep.grid().add_blast(core::PlacementStrategy::kRealTime, c.opt, model);
    }
  });
  rep.setup_s = seconds_between(t0, Clock::now());

  layer(rep, spans, root, "exp.sweep", [&] { sweep.run(); });
  rep.wall_s = rep.time["exp.sweep"];
  if (spans != nullptr) spans->close(root);

  SampleSet tail;
  double makespan_sum = 0.0;
  std::size_t distinct = 0;
  for (std::size_t job = 0; job < cells.size(); ++job) {
    const Cell& c = cells[job];
    const auto& out = sweep.outcome(job);
    const std::string what = "service_sweep/" + out.tag;
    if (!out.ok()) {
      rep.errors.push_back(what + ": " + out.error);
      rep.attempted += expected_units;
      rep.cell_digests.push_back(0);
      continue;
    }
    const auto& r = *out.value;
    check_report(rep, r, what, expected_units);
    const auto digest = report_digest(r);
    rep.cell_digests.push_back(digest);
    rep.digest = combine(rep.digest, digest);
    rep.count["frieda.scale_outs"] += r.scale_outs;
    rep.count["frieda.scale_ins"] += r.scale_ins;
    rep.count["net.transfers"] += r.transfers;
    rep.count["net.bytes_moved"] += r.bytes_moved;
    if (c.twin.has_value()) {
      const auto& twin = sweep.outcome(*c.twin);
      if (!out.from_cache) rep.errors.push_back(what + ": duplicate cell was executed");
      if (!twin.ok() || core::serialize_run_report(*twin.value) != core::serialize_run_report(r)) {
        rep.errors.push_back(what + ": duplicate cell differs from its twin");
      }
      continue;
    }
    ++distinct;
    makespan_sum += r.makespan();
    rep.units_simulated += static_cast<double>(r.units_completed);
    if (c.rate == kTailRate) {
      for (const double s : r.latency.samples()) tail.add(s);
    }
  }
  rep.makespan_s = distinct > 0 ? makespan_sum / static_cast<double>(distinct) : 0.0;
  rep.p99_s = tail.count() > 0 ? tail.percentile(99.0) : 0.0;

  auto& sm = sweep.metrics();
  const auto* jobs = sm.find_stats("sweep.wall_per_job_s");
  rep.time["exp.job_s_sum"] = jobs != nullptr ? jobs->sum() : 0.0;
  rep.time["exp.job_s_max"] = jobs != nullptr && jobs->count() > 0 ? jobs->max() : 0.0;
  const double threads = static_cast<double>(sweep.threads_used());
  rep.ratio_pool_busy = rep.wall_s > 0.0 && threads > 0.0
                            ? rep.time["exp.job_s_sum"] / (threads * rep.wall_s)
                            : 0.0;
  rep.count["exp.runs_executed"] = counter_value(sm, "sweep.runs_executed");
  rep.count["exp.cache_hits"] = counter_value(sm, "sweep.cache_hits");
  rep.loose["exp.steals"] = counter_value(sm, "sweep.steals");
  rep.loose["frieda.tmpl_hits"] = store.hits() - hits0;
  rep.loose["frieda.tmpl_builds"] = store.builds() - builds0;
  rep.loose["frieda.tmpl_patches"] = store.patches() - patches0;

  const std::size_t distinct_cells = std::size(kServiceRates) * kSeedsPerRate;
  if (rep.count["exp.cache_hits"] != kDuplicates) {
    rep.errors.push_back("exp.cache_hits " + std::to_string(rep.count["exp.cache_hits"]) +
                         " != duplicate cells " + std::to_string(kDuplicates));
  }
  if (rep.count["exp.runs_executed"] != distinct_cells) {
    rep.errors.push_back("exp.runs_executed " + std::to_string(rep.count["exp.runs_executed"]) +
                         " != distinct cells " + std::to_string(distinct_cells));
  }
  // Template counters depend on which cells race for the first capture; what
  // holds in every interleaving: each executed run either hits or builds, at
  // most one build per pool thread, and every hit patches its arrival stream.
  const auto builds = rep.loose["frieda.tmpl_builds"];
  const auto hits = rep.loose["frieda.tmpl_hits"];
  if (builds < 1 || builds > kSweepThreads || builds + hits != distinct_cells ||
      rep.loose["frieda.tmpl_patches"] != hits) {
    rep.errors.push_back("template counters out of range: builds " + std::to_string(builds) +
                         ", hits " + std::to_string(hits) + ", patches " +
                         std::to_string(rep.loose["frieda.tmpl_patches"]));
  }

  return rep;
}

// Solver and event counts live inside the sweep's runs.  Attaching a
// registry to a sweep cell would make it unfingerprintable (and turn the
// duplicate hits into runs), so the traced run replays each distinct cell
// outside the sweep with a registry attached.  The replay's per-cell digests
// must equal the sweep's (`expected`): the same report, field for field.
Rep replay_service_cells(std::uint64_t seed, Spans* spans,
                         const std::vector<std::uint64_t>& expected) {
  Rep rep;
  const int root = spans != nullptr ? spans->open("service_replay", -1) : -1;
  workload::PaperScenarioOptions base;
  base.scale = kServiceScale;
  const auto model = layer(rep, spans, root, "workload.model_build", [&] {
    return std::make_unique<workload::BlastModel>(workload::make_blast_model(base));
  });
  const auto cells = service_cells(seed);
  for (std::size_t job = 0; job < cells.size(); ++job) {
    if (cells[job].twin.has_value()) continue;
    obs::MetricsRegistry metrics;
    auto opt = cells[job].opt;
    opt.metrics = &metrics;
    opt.use_execution_templates = false;
    const auto r = layer(rep, spans, root, "replay.cell", [&] {
      return workload::run_blast(core::PlacementStrategy::kRealTime, *model, opt);
    });
    if (job >= expected.size() || report_digest(r) != expected[job]) {
      rep.errors.push_back("service_sweep cell " + std::to_string(job) +
                           ": replay differs from the sweep's result");
    }
    registry_counts(rep, metrics);
    rep.count["net.solves"] += counter_value(metrics, "net.solver_invocations");
    rep.count["net.full_solves"] += counter_value(metrics, "net.solver_full_solves");
    rep.count["net.dirty_classes"] += counter_value(metrics, "net.solver_dirty_classes");
  }
  if (spans != nullptr) spans->close(root);
  return rep;
}

// ---------------------------------------------------------------------------
// Host drift probe: a fixed in-cache integer workload, timed about once a
// second between repetitions.  It slows when the host takes CPU share away from this process
// (a busy SMT sibling, frequency or hypervisor steal), not when the
// simulator's own code changes.
// ---------------------------------------------------------------------------

double host_probe_seconds() {
  const auto a = Clock::now();
  std::vector<std::uint64_t> v(1u << 18);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& e : v) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    e = z ^ (z >> 31);
  }
  std::sort(v.begin(), v.end());
  const double s = seconds_between(a, Clock::now());
  if (!std::is_sorted(v.begin(), v.end())) std::abort();  // keeps the work observable
  return s;
}

// ---------------------------------------------------------------------------
// Aggregation and output
// ---------------------------------------------------------------------------

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + json_escape(key) + "\": " + value;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + json_escape(value) + "\"");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename Get>
std::string list_json(const std::vector<Rep>& reps, Get get) {
  std::string s = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) s += (i ? ", " : "") + num(get(reps[i]));
  return s + "]";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  JsonObject o;
  for (const auto& m : ms) {
    o.raw(m.name, JsonObject().raw("value", num(m.value)).str("unit", m.unit).text());
  }
  return o.text();
}

// Simulated results and every count must repeat exactly across the
// repetitions of one run; each count is compared with the first repetition
// that recorded it.
void check_exact(const std::vector<Rep*>& reps) {
  std::map<std::string, std::uint64_t> ref;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    Rep& r = *reps[i];
    const std::string rep_name = "repetition " + std::to_string(i);
    if (r.digest != reps.front()->digest) {
      r.errors.push_back(rep_name + ": simulated results differ");
    }
    for (const auto& [name, v] : r.count) {
      const auto [it, fresh] = ref.try_emplace(name, v);
      if (!fresh && it->second != v) {
        r.errors.push_back(rep_name + ": count " + name + " = " + std::to_string(v) +
                           ", earlier repetitions " + std::to_string(it->second));
      }
    }
    const auto a = r.count.find("net.solves");
    const auto b = r.count.find("net.solves_registry");
    if (a != r.count.end() && b != r.count.end() && a->second != b->second) {
      r.errors.push_back(rep_name + ": registry net.solver_invocations disagrees with the network");
    }
  }
}

void write_trace(const std::string& path, const Spans& spans, Clock::time_point epoch) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    const double ts = seconds_between(epoch, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    f << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \"perfbench\", \"ph\": \"X\""
      << ", \"ts\": " << num(ts) << ", \"dur\": " << num(dur) << ", \"pid\": 1, \"tid\": 1"
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}"
      << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

// Per-layer table: calls, total and self time (span minus its children).
std::string layer_table(const Spans& spans) {
  const auto& all = spans.all();
  std::vector<double> child(all.size(), 0.0);
  for (const auto& s : all) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
  }
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double d = seconds_between(all[i].start, all[i].end);
    auto& row = rows[all[i].name];
    ++row.calls;
    row.total += d;
    row.self += d - child[i];
  }
  std::ostringstream os;
  os << "layer                      calls     total_s      self_s\n";
  for (const auto& [name, r] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-24s %7zu %11.6f %11.6f\n", name.c_str(), r.calls, r.total,
                  r.self);
    os << buf;
  }
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload blast_batch|als_network|service_sweep --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(argv[0]);
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') usage(argv[0]);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) usage(argv[0]);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage(argv[0]);
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);
  return a;
}

// Timing a debug or instrumented build would measure the wrong program.
const char* build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#ifndef __OPTIMIZE__
  return "optimization is disabled";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) return "build type is not Release";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 3;
  }

  using RepFn = Rep (*)(std::uint64_t, Spans*, bool);
  RepFn fn = nullptr;
  if (args.workload == "blast_batch") fn = run_blast_batch;
  if (args.workload == "als_network") fn = run_als_network;
  if (args.workload == "service_sweep") fn = run_service_sweep;
  if (fn == nullptr) usage(argv[0]);

  const auto epoch = Clock::now();
  std::vector<double> ref;
  ref.push_back(host_probe_seconds());
  auto last_probe = Clock::now();

  // Warm-up: caches fill and lazy set-up finishes; checked, not timed.
  std::vector<Rep> checked;
  checked.push_back(fn(args.seed, nullptr, false));

  std::vector<Rep> plain;   // observers detached
  std::vector<Rep> traced;  // spans + registry
  Spans spans;
  const auto start = Clock::now();
  const std::size_t min_reps = 3;
  while (plain.size() < min_reps || seconds_between(start, Clock::now()) < args.seconds) {
    if (seconds_between(last_probe, Clock::now()) >= 1.0) {
      ref.push_back(host_probe_seconds());
      last_probe = Clock::now();
    }
    plain.push_back(fn(args.seed, nullptr, false));
    if (args.trace) traced.push_back(fn(args.seed, &spans, true));
  }
  const double rss = peak_rss_mb();

  // The service sweep's solver counts come from a one-off replay of its
  // cells with registries attached (see replay_service_cells).
  if (args.trace && args.workload == "service_sweep") {
    Rep replay = replay_service_cells(args.seed, &spans, traced.front().cell_digests);
    for (auto& t : traced) {
      for (const char* k : {"net.solves", "net.full_solves", "net.dirty_classes",
                            "net.flows_coalesced", "frieda.evictions", "sim.events"}) {
        t.count[k] = replay.count[k];
      }
    }
    checked.push_back(std::move(replay));
  }

  std::vector<std::string> errors;
  {
    std::vector<Rep*> all = {&checked.front()};
    for (auto& r : plain) all.push_back(&r);
    for (auto& r : traced) all.push_back(&r);
    check_exact(all);
    for (const auto* r : all) errors.insert(errors.end(), r->errors.begin(), r->errors.end());
    for (std::size_t i = 1; i < checked.size(); ++i) {
      errors.insert(errors.end(), checked[i].errors.begin(), checked[i].errors.end());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& r : plain) {
    attempted += r.attempted;
    failed += r.errors.empty() ? r.attempted - r.completed : r.attempted;
  }
  for (const auto& r : traced) {
    attempted += r.attempted;
    failed += r.errors.empty() ? r.attempted - r.completed : r.attempted;
  }
  if (!errors.empty() && failed == 0) failed = std::max<std::uint64_t>(1, attempted);

  auto values = [](const std::vector<Rep>& reps, auto get) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(get(r));
    return v;
  };
  auto med = [&](const std::vector<Rep>& reps, auto get) { return median(values(reps, get)); };
  // Contention from other tenants of a shared host only ever adds time, and
  // it comes in phases: repetitions of one run split into a fast and a ~2x
  // slower mode, and how much of a run falls in each varies from run to
  // run.  A median tracks the neighbours; the fastest of many short
  // repetitions lands in a fast window of every run and tracks the program.
  // End-to-end timings therefore report the fastest repetition; the
  // per-layer breakdowns report medians of the traced repetitions.
  auto fastest = [&](const std::vector<Rep>& reps, auto get) {
    return minimum(values(reps, get));
  };
  const Rep& first = plain.front();
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double wall = fastest(plain, [](const Rep& r) { return r.wall_s; });
    metrics = {
        {"wall_s", wall, "s"},
        {"setup_s", fastest(plain, [](const Rep& r) { return r.setup_s; }), "s"},
        {"units_per_s", first.units_simulated / wall, "1/s"},
        {"peak_rss_mb", rss, "MB"},
        {"sim_makespan_s", first.makespan_s, "s"},
        {"sim_p99_s", first.p99_s, "s"},
    };
  } else {
    auto t = [&](const char* name) {
      return med(traced, [&](const Rep& r) {
        const auto it = r.time.find(name);
        return it != r.time.end() ? it->second : 0.0;
      });
    };
    auto c = [&](const char* name) {
      const auto it = traced.front().count.find(name);
      return it != traced.front().count.end() ? static_cast<double>(it->second) : 0.0;
    };
    auto l = [&](const char* name) {
      return med(traced, [&](const Rep& r) {
        const auto it = r.loose.find(name);
        return it != r.loose.end() ? static_cast<double>(it->second) : 0.0;
      });
    };
    const bool sweep = args.workload == "service_sweep";
    const double run_s = t("frieda.run");
    const double events = c("sim.events");
    const double solves = c("net.solves");
    const double plain_wall = fastest(plain, [](const Rep& r) { return r.wall_s; });
    const double traced_wall = fastest(traced, [](const Rep& r) { return r.wall_s; });
    metrics = {
        {"workload.model_build_s", t("workload.model_build"), "s"},
        {"cluster.provision_s", t("cluster.provision"), "s"},
        {"frieda.partition_s", t("frieda.partition"), "s"},
        {"frieda.run_init_s", t("frieda.run_init"), "s"},
        {"frieda.run_s", run_s, "s"},
        {"sim.events", events, "count"},
        {"sim.events_per_s", (sweep ? (t("exp.job_s_sum") > 0 ? events / t("exp.job_s_sum") : 0.0)
                                    : (run_s > 0 ? events / run_s : 0.0)),
         "1/s"},
        {"net.solves", solves, "count"},
        {"net.full_solves", c("net.full_solves"), "count"},
        {"net.dirty_classes_per_solve", solves > 0 ? c("net.dirty_classes") / solves : 0.0,
         "count"},
        {"net.flows_coalesced", c("net.flows_coalesced"), "count"},
        {"net.transfers", c("net.transfers"), "count"},
        {"net.bytes_moved", c("net.bytes_moved"), "B"},
        {"frieda.tmpl_hits", l("frieda.tmpl_hits"), "count"},
        {"frieda.tmpl_builds", l("frieda.tmpl_builds"), "count"},
        {"frieda.tmpl_patches", l("frieda.tmpl_patches"), "count"},
        {"frieda.scale_outs", c("frieda.scale_outs"), "count"},
        {"frieda.scale_ins", c("frieda.scale_ins"), "count"},
        {"frieda.evictions", c("frieda.evictions"), "count"},
        {"exp.grid_build_s", t("exp.grid_build"), "s"},
        {"exp.sweep_s", t("exp.sweep"), "s"},
        {"exp.runs_executed", c("exp.runs_executed"), "count"},
        {"exp.cache_hits", c("exp.cache_hits"), "count"},
        {"exp.steals", l("exp.steals"), "count"},
        {"exp.job_s_sum", t("exp.job_s_sum"), "s"},
        {"exp.job_s_max", t("exp.job_s_max"), "s"},
        {"exp.pool_busy", med(traced, [](const Rep& r) { return r.ratio_pool_busy; }), "ratio"},
        {"obs.traced_wall_s", traced_wall, "s"},
        {"obs.overhead", plain_wall > 0 ? traced_wall / plain_wall - 1.0 : 0.0, "ratio"},
        {"host.ref_s", median(ref), "s"},
    };
  }

  std::vector<double> ref_sorted = ref;
  std::sort(ref_sorted.begin(), ref_sorted.end());
  std::string errors_json = "[";
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    errors_json += (i ? ", \"" : "\"") + json_escape(errors[i]) + "\"";
  }
  errors_json += "]";
  std::string exact = "{";
  {
    JsonObject o;
    for (const auto& [k, v] : first.count) o.raw(k, std::to_string(v));
    o.raw("digest", "\"" + std::to_string(first.digest) + "\"");
    o.raw("sim_makespan_s", num(first.makespan_s));
    o.raw("sim_p99_s", num(first.p99_s));
    exact = o.text();
  }

  if (args.trace && !args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    write_trace(stem + ".trace.json", spans, epoch);
    const std::string table = layer_table(spans);
    std::ofstream(stem + ".layers.txt") << table;
    std::fprintf(stderr, "%s", table.c_str());
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", errors[i].c_str());
  }

  JsonObject out;
  out.raw("correct", errors.empty() ? "true" : "false")
      .raw("attempted", std::to_string(attempted))
      .raw("failed", std::to_string(failed))
      .raw("metrics", metrics_json(metrics))
      .raw("repetitions", std::to_string(plain.size() + traced.size()))
      .raw("wall_reps", list_json(plain, [](const Rep& r) { return r.wall_s; }))
      .raw("setup_reps", list_json(plain, [](const Rep& r) { return r.setup_s; }))
      .raw("host_ref_s_median", num(median(ref)))
      .raw("host_ref_s_min", num(ref_sorted.front()))
      .raw("host_ref_s_max", num(ref_sorted.back()))
      .raw("exact", exact)
      .raw("errors", errors_json)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", out.text().c_str());
  return errors.empty() ? 0 : 1;
}
