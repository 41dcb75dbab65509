// Execution-template correctness (src/frieda/template.*).
//
// The contract under test: instantiating a run from a cached execution
// template is *value-identical* to building the control plane from scratch.
// The differential suite below re-runs full paper scenarios with templates
// off, cold (capture), and warm (instantiate), and compares the resulting
// RunReports field by field — any divergence in the partition list, the
// assignment table, a bound command, or an arrival schedule shows up as a
// timestamp or unit-record mismatch here.  The remaining tests pin the
// invalidation rules (what shares a key, what patches, what rebuilds), the
// TemplateStore counters and holder semantics (the LRU itself is tested in
// test_lru_cache.cpp), capture-time validation, and the
// FRIEDA_TEMPLATE_AUDIT env parsing.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"
#include "frieda/template.hpp"
#include "obs/metrics.hpp"
#include "storage/file.hpp"
#include "workload/scenarios.hpp"

namespace frieda {
namespace {

using core::PlacementStrategy;
using workload::PaperScenarioOptions;

constexpr PlacementStrategy kStrategies[] = {
    PlacementStrategy::kNoPartitionCommon,
    PlacementStrategy::kPrePartitionRemote,
    PlacementStrategy::kPrePartitionLocal,
    PlacementStrategy::kRealTime,
};

// Field-by-field, bit-exact report equality.  Deliberately not operator==
// on RunReport: spelling every field out here means a future field added to
// the report without a matching line below fails loudly in review, and the
// per-field messages locate a divergence immediately.
void expect_identical(const core::RunReport& a, const core::RunReport& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ready_time, b.ready_time);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.staging_end, b.staging_end);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.units_completed, b.units_completed);
  EXPECT_EQ(a.units_failed, b.units_failed);
  EXPECT_EQ(a.units_unprocessed, b.units_unprocessed);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.workers_isolated, b.workers_isolated);
  EXPECT_EQ(a.open_loop, b.open_loop);
  EXPECT_EQ(a.serve_start, b.serve_start);
  EXPECT_EQ(a.scale_outs, b.scale_outs);
  EXPECT_EQ(a.scale_ins, b.scale_ins);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    EXPECT_EQ(a.units[i].unit, b.units[i].unit) << "unit " << i;
    EXPECT_EQ(a.units[i].status, b.units[i].status) << "unit " << i;
    EXPECT_EQ(a.units[i].worker, b.units[i].worker) << "unit " << i;
    EXPECT_EQ(a.units[i].attempts, b.units[i].attempts) << "unit " << i;
    EXPECT_EQ(a.units[i].arrival, b.units[i].arrival) << "unit " << i;
    EXPECT_EQ(a.units[i].dispatched, b.units[i].dispatched) << "unit " << i;
    EXPECT_EQ(a.units[i].finished, b.units[i].finished) << "unit " << i;
    EXPECT_EQ(a.units[i].transfer_seconds, b.units[i].transfer_seconds) << "unit " << i;
    EXPECT_EQ(a.units[i].exec_seconds, b.units[i].exec_seconds) << "unit " << i;
  }
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(a.workers[i].worker, b.workers[i].worker) << "worker " << i;
    EXPECT_EQ(a.workers[i].vm, b.workers[i].vm) << "worker " << i;
    EXPECT_EQ(a.workers[i].slot, b.workers[i].slot) << "worker " << i;
    EXPECT_EQ(a.workers[i].units_completed, b.workers[i].units_completed) << "worker " << i;
    EXPECT_EQ(a.workers[i].busy_seconds, b.workers[i].busy_seconds) << "worker " << i;
    EXPECT_EQ(a.workers[i].isolated, b.workers[i].isolated) << "worker " << i;
    EXPECT_EQ(a.workers[i].drained, b.workers[i].drained) << "worker " << i;
  }
  const auto& ia = a.timeline.intervals();
  const auto& ib = b.timeline.intervals();
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].kind, ib[i].kind) << "interval " << i;
    EXPECT_EQ(ia[i].start, ib[i].start) << "interval " << i;
    EXPECT_EQ(ia[i].end, ib[i].end) << "interval " << i;
    EXPECT_EQ(ia[i].label, ib[i].label) << "interval " << i;
  }
}

core::RunReport run_scratch(PlacementStrategy strategy, PaperScenarioOptions opt) {
  opt.use_execution_templates = false;
  return workload::run_blast(strategy, opt);
}

// Scenario tests share the process-global store, so each test starts from a
// clean slate and restores the default flags on the way out.
class TemplateScenario : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    auto& s = core::TemplateStore::global();
    s.clear();
    s.set_differential_check(false);
    s.set_max_entries(core::TemplateStore::kDefaultMaxEntries);
  }
};

TEST_F(TemplateScenario, TemplatedRunsMatchScratchAcrossStrategies) {
  PaperScenarioOptions opt;
  opt.scale = 0.01;  // 75 BLAST queries: fast, but every code path is real
  auto& store = core::TemplateStore::global();
  for (const auto strategy : kStrategies) {
    const auto scratch = run_scratch(strategy, opt);
    ASSERT_TRUE(scratch.all_completed());
    const auto builds_before = store.builds();
    const auto cold = workload::run_blast(strategy, opt);   // captures
    const auto warm = workload::run_blast(strategy, opt);   // instantiates
    EXPECT_EQ(store.builds(), builds_before + 1);
    expect_identical(scratch, cold);
    expect_identical(scratch, warm);
  }
  EXPECT_GE(store.hits(), 4u);  // one warm run per strategy
}

TEST_F(TemplateScenario, AlsTemplatedRunMatchesScratch) {
  PaperScenarioOptions opt;
  opt.scale = 0.02;  // 24 images -> 12 pairwise units
  PaperScenarioOptions scratch_opt = opt;
  scratch_opt.use_execution_templates = false;
  const auto scratch = workload::run_als(PlacementStrategy::kRealTime, scratch_opt);
  const auto cold = workload::run_als(PlacementStrategy::kRealTime, opt);
  const auto warm = workload::run_als(PlacementStrategy::kRealTime, opt);
  ASSERT_TRUE(scratch.all_completed());
  expect_identical(scratch, cold);
  expect_identical(scratch, warm);
}

TEST_F(TemplateScenario, SeedRerunHitsTemplateAndStaysIdentical) {
  auto& store = core::TemplateStore::global();
  PaperScenarioOptions opt;
  opt.scale = 0.01;
  opt.seed = 1;
  const auto builds_before = store.builds();
  const auto hits_before = store.hits();
  (void)workload::run_blast(PlacementStrategy::kRealTime, opt);  // capture
  EXPECT_EQ(store.builds(), builds_before + 1);

  opt.seed = 2;  // seed is patchable: same key, no rebuild
  const auto templated = workload::run_blast(PlacementStrategy::kRealTime, opt);
  EXPECT_EQ(store.builds(), builds_before + 1);
  EXPECT_GT(store.hits(), hits_before);
  expect_identical(run_scratch(PlacementStrategy::kRealTime, opt), templated);
}

TEST_F(TemplateScenario, WorkerShapeRerunPatchesAssignment) {
  auto& store = core::TemplateStore::global();
  PaperScenarioOptions opt;
  opt.scale = 0.01;
  const auto builds_before = store.builds();
  (void)workload::run_blast(PlacementStrategy::kPrePartitionRemote, opt);  // capture @ 4 VMs
  const auto patches_before = store.patches();

  opt.worker_vms = 2;  // shape delta: same template, assignment recomputed
  const auto templated = workload::run_blast(PlacementStrategy::kPrePartitionRemote, opt);
  EXPECT_EQ(store.builds(), builds_before + 1);
  EXPECT_GT(store.patches(), patches_before);
  expect_identical(run_scratch(PlacementStrategy::kPrePartitionRemote, opt), templated);
}

TEST_F(TemplateScenario, ArrivalConfigDeltaPatchesSchedule) {
  auto& store = core::TemplateStore::global();
  PaperScenarioOptions opt;
  opt.scale = 0.004;  // 30 queries, matching the service-mode tests
  opt.service.open_loop = true;
  opt.service.arrivals.kind = workload::ArrivalKind::kPoisson;
  opt.service.arrivals.rate = 4.0;
  const auto builds_before = store.builds();
  (void)workload::run_blast(PlacementStrategy::kRealTime, opt);  // capture
  const auto patches_before = store.patches();

  // Same arrival config: the captured schedule is reused, no patch.
  const auto same = workload::run_blast(PlacementStrategy::kRealTime, opt);
  EXPECT_EQ(store.patches(), patches_before);
  expect_identical(run_scratch(PlacementStrategy::kRealTime, opt), same);

  // New rate: same template key, but the schedule is regenerated (a patch).
  opt.service.arrivals.rate = 8.0;
  const auto patched = workload::run_blast(PlacementStrategy::kRealTime, opt);
  EXPECT_EQ(store.builds(), builds_before + 1);
  EXPECT_GT(store.patches(), patches_before);
  expect_identical(run_scratch(PlacementStrategy::kRealTime, opt), patched);
}

TEST_F(TemplateScenario, AuditModeRandomizedChurnStaysIdentical) {
  // The FRIEDA_TEMPLATE_AUDIT differential mode recomputes every templated
  // decision from scratch and FRIEDA_CHECKs equality before use.  Churn the
  // patchable knobs randomly so hits, patches, and rebuilds all occur with
  // the audit on; any divergence throws inside the run.
  core::TemplateStore::global().set_differential_check(true);
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    PaperScenarioOptions opt;
    opt.scale = rng.index(2) == 0 ? 0.004 : 0.008;
    opt.seed = 100 + rng.index(5);
    opt.worker_vms = 2 + 2 * rng.index(2);
    opt.multicore = rng.index(2) == 0;
    const auto strategy = kStrategies[rng.index(4)];
    const auto templated = workload::run_blast(strategy, opt);
    expect_identical(run_scratch(strategy, opt), templated);
  }
}

TEST_F(TemplateScenario, PerRunOptOutBuildsNothing) {
  auto& store = core::TemplateStore::global();
  PaperScenarioOptions opt;
  opt.scale = 0.01;

  const auto builds_before = store.builds();
  opt.use_execution_templates = false;
  const auto off = workload::run_blast(PlacementStrategy::kRealTime, opt);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.builds(), builds_before);

  opt.use_execution_templates = true;
  expect_identical(off, workload::run_blast(PlacementStrategy::kRealTime, opt));
  EXPECT_EQ(store.builds(), builds_before + 1);
}

TEST_F(TemplateScenario, ArrangeHookDisqualifiesTemplating) {
  PaperScenarioOptions opt;
  opt.scale = 0.01;
  // Tracer/metrics hooks stay templatable (the run still executes fully),
  // but an arrange hook disqualifies — no captured decision set covers it.
  obs::MetricsRegistry registry;
  opt.metrics = &registry;
  EXPECT_TRUE(workload::templatable(opt));
  opt.metrics = nullptr;
  opt.arrange = [](sim::Simulation&, cluster::VirtualCluster&, core::FriedaRun&) {};
  EXPECT_FALSE(workload::templatable(opt));
  (void)workload::run_blast(PlacementStrategy::kRealTime, opt);
  EXPECT_EQ(core::TemplateStore::global().size(), 0u);
}

// ---- Key semantics (pure fingerprint tests, no runs) ----------------------

TEST(TemplateKey, StructuralFieldsChangeTheKey) {
  const PaperScenarioOptions base;
  const auto key = workload::template_fingerprint(
      "blast", PlacementStrategy::kRealTime, base);

  EXPECT_NE(key, workload::template_fingerprint("als", PlacementStrategy::kRealTime, base));
  EXPECT_NE(key, workload::template_fingerprint(
                     "blast", PlacementStrategy::kPrePartitionLocal, base));
  auto scaled = base;
  scaled.scale = 0.5;
  EXPECT_NE(key,
            workload::template_fingerprint("blast", PlacementStrategy::kRealTime, scaled));
  auto nic = base;
  nic.nic = mbps(200);
  EXPECT_NE(key, workload::template_fingerprint("blast", PlacementStrategy::kRealTime, nic));
}

TEST(TemplateKey, PatchableFieldsShareTheKey) {
  const PaperScenarioOptions base;
  const auto key = workload::template_fingerprint(
      "blast", PlacementStrategy::kRealTime, base);
  auto patched = base;
  patched.seed = 99;
  patched.worker_vms = 16;
  patched.cores_per_vm = 2;
  patched.multicore = false;
  patched.prefetch = 3;
  patched.requeue_on_failure = true;
  patched.service.open_loop = true;
  patched.service.arrivals.rate = 12.0;
  EXPECT_EQ(key,
            workload::template_fingerprint("blast", PlacementStrategy::kRealTime, patched));
}

TEST(TemplateKey, ArrivalScheduleKeySeesConfigAndCount) {
  workload::ArrivalConfig cfg;
  const auto key = workload::arrival_schedule_key(cfg, 100);
  EXPECT_NE(key, 0u);  // 0 is reserved for "closed batch"
  EXPECT_EQ(key, workload::arrival_schedule_key(cfg, 100));
  EXPECT_NE(key, workload::arrival_schedule_key(cfg, 101));
  auto other = cfg;
  other.rate = 2.0;
  EXPECT_NE(key, workload::arrival_schedule_key(other, 100));
  other = cfg;
  other.seed = 43;
  EXPECT_NE(key, workload::arrival_schedule_key(other, 100));
  other = cfg;
  other.kind = workload::ArrivalKind::kBursty;
  EXPECT_NE(key, workload::arrival_schedule_key(other, 100));
}

// ---- Capture validation and store mechanics -------------------------------

struct Fixture {
  storage::FileCatalog cat;
  core::CommandTemplate command{"app $inp1"};
  std::vector<core::WorkUnit> units;

  explicit Fixture(std::size_t files = 6) {
    for (std::size_t i = 0; i < files; ++i) {
      cat.add_file("f" + std::to_string(i), MB);
    }
    units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile, cat);
  }

  std::shared_ptr<const core::ExecutionTemplate> capture(std::size_t workers = 2) const {
    return core::ExecutionTemplate::capture(units, command, cat, "/data", true,
                                            core::AssignmentPolicy::kRoundRobin, workers,
                                            0, {});
  }
};

TEST(ExecutionTemplateCapture, CapturesValidatedDecisions) {
  const Fixture fx;
  const auto t = fx.capture(2);
  ASSERT_EQ(t->units().size(), 6u);
  ASSERT_EQ(t->prototypes().size(), 6u);
  for (std::size_t i = 0; i < t->units().size(); ++i) {
    EXPECT_EQ(t->prototypes()[i].unit, t->units()[i]);
    EXPECT_EQ(t->prototypes()[i].command,
              fx.command.bind_unit(t->units()[i], fx.cat, "/data"));
    EXPECT_TRUE(t->prototypes()[i].inputs_staged);
  }
  EXPECT_TRUE(core::valid_assignment(t->assignment(), 6, 2));
  EXPECT_EQ(t->partition_sig(), core::partition_signature(fx.units));
  EXPECT_EQ(t->arrival_key(), 0u);
  EXPECT_TRUE(t->arrivals().empty());
}

TEST(ExecutionTemplateCapture, RejectsNonDenseUnitIds) {
  Fixture fx;
  fx.units[1].id = 5;  // ids must be dense [0, n)
  EXPECT_THROW(fx.capture(), FriedaError);
}

TEST(ExecutionTemplateCapture, RejectsArrivalArityMismatch) {
  const Fixture fx;
  EXPECT_THROW(core::ExecutionTemplate::capture(
                   fx.units, fx.command, fx.cat, "/data", true,
                   core::AssignmentPolicy::kRoundRobin, 2,
                   /*arrival_key=*/7, /*arrivals=*/{1.0, 2.0}),
               FriedaError);
  // And the reverse: a schedule without a key is equally malformed.
  EXPECT_THROW(core::ExecutionTemplate::capture(
                   fx.units, fx.command, fx.cat, "/data", true,
                   core::AssignmentPolicy::kRoundRobin, 2,
                   /*arrival_key=*/0, /*arrivals=*/{1.0}),
               FriedaError);
}

TEST(TemplateStoreMechanics, LookupInsertAndCounters) {
  const Fixture fx;
  core::TemplateStore store;
  const auto key = StableHasher().mix_str("k1").digest();
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.misses(), 1u);

  const auto first = fx.capture();
  EXPECT_TRUE(store.insert(key, first));
  EXPECT_FALSE(store.insert(key, fx.capture()));  // first insert wins
  EXPECT_EQ(store.lookup(key)->get(), first.get());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStoreMechanics, EvictedTemplateStaysValidForHolders) {
  const Fixture fx;
  core::TemplateStore store(/*max_entries=*/1);
  const auto k1 = StableHasher().mix_str("k1").digest();
  store.insert(k1, fx.capture());
  const auto held = store.lookup(k1).value();
  store.insert(StableHasher().mix_str("k2").digest(), fx.capture());  // evicts k1
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.lookup(k1).has_value());
  EXPECT_EQ(held->units().size(), 6u);  // shared_ptr keeps it alive
}

TEST(TemplateStoreMechanics, ClearKeepsCountersAndFlags) {
  const Fixture fx;
  core::TemplateStore store;
  store.set_differential_check(true);
  store.insert(StableHasher().mix_str("k").digest(), fx.capture());
  store.note_build();
  store.note_patch(3);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.builds(), 1u);
  EXPECT_EQ(store.patches(), 3u);
  EXPECT_TRUE(store.differential_check());
  EXPECT_EQ(core::TemplateStore().max_entries(), core::TemplateStore::kDefaultMaxEntries);
}

TEST(TemplateEnv, ParseBoolEnv) {
  using core::detail::parse_bool_env;
  EXPECT_EQ(parse_bool_env("1"), 1);
  EXPECT_EQ(parse_bool_env("true"), 1);
  EXPECT_EQ(parse_bool_env("ON"), 1);
  EXPECT_EQ(parse_bool_env("Yes"), 1);
  EXPECT_EQ(parse_bool_env("0"), 0);
  EXPECT_EQ(parse_bool_env("false"), 0);
  EXPECT_EQ(parse_bool_env("OFF"), 0);
  EXPECT_EQ(parse_bool_env("no"), 0);
  EXPECT_EQ(parse_bool_env(""), -1);
  EXPECT_EQ(parse_bool_env("2"), -1);
  EXPECT_EQ(parse_bool_env("maybe"), -1);
  EXPECT_EQ(parse_bool_env(nullptr), -1);
}

TEST(PartitionSignature, SeesContentAndOrder) {
  const Fixture fx;
  const auto sig = core::partition_signature(fx.units);
  EXPECT_EQ(sig, core::partition_signature(fx.units));

  auto reordered = fx.units;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(sig, core::partition_signature(reordered));

  auto regrouped = fx.units;
  regrouped[0].inputs.push_back(regrouped[1].inputs[0]);
  EXPECT_NE(sig, core::partition_signature(regrouped));
}

}  // namespace
}  // namespace frieda
