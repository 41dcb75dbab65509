// Sweep engine tests: thread-count invariance of real scenario runs, seed
// derivation, deterministic result ordering under skewed job timings,
// exception isolation, memoization (fingerprint stability, cache hit/miss
// correctness, in-batch dedup, global cross-grid cache), cost-aware
// longest-first scheduling, FRIEDA_SWEEP_THREADS validation, ScenarioSweep
// lifecycle, runner metrics, concurrent create-or-get on shared
// MetricsRegistry / ResultCache instances (the tests the tsan preset
// exists for), backend selection (FRIEDA_SWEEP_BACKEND), the fork-based
// process backend (identical results, crash isolation), and steal-half
// dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "exp/calibrate.hpp"
#include "exp/cost.hpp"
#include "exp/grid.hpp"
#include "exp/result_cache.hpp"
#include "exp/sweep.hpp"
#include "obs/metrics.hpp"
#include "workload/scenarios.hpp"

namespace frieda::exp {
namespace {

using core::PlacementStrategy;
using workload::PaperScenarioOptions;

// ---------------------------------------------------------------------------
// Field-by-field RunReport comparison (simulated runs are deterministic, so
// every field — including derived doubles — must match exactly).
// ---------------------------------------------------------------------------

void expect_reports_equal(const core::RunReport& a, const core::RunReport& b) {
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
  EXPECT_EQ(a.transfer_busy(), b.transfer_busy());
  EXPECT_EQ(a.compute_busy(), b.compute_busy());
  EXPECT_EQ(a.overlap(), b.overlap());
  // Per-unit and per-worker records, via their canonical CSV renderings.
  EXPECT_EQ(a.units_csv(), b.units_csv());
  EXPECT_EQ(a.workers_csv(), b.workers_csv());
}

std::vector<Job<core::RunReport>> scenario_jobs() {
  Grid grid;
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  grid.add_als(PlacementStrategy::kPrePartitionRemote, opt);
  grid.add_als(PlacementStrategy::kRealTime, opt);
  grid.add_blast(PlacementStrategy::kNoPartitionCommon, opt);
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  return grid.take();
}

TEST(Sweep, ThreadCountInvariance) {
  // Memoization off: this test is about the *execution* paths being
  // thread-count invariant, so both runners must actually run every job.
  SweepRunner<> one(SweepOptions{1});
  SweepRunner<> eight(SweepOptions{8});
  one.set_cache(nullptr);
  eight.set_cache(nullptr);
  const auto seq = one.run(scenario_jobs());
  const auto par = eight.run(scenario_jobs());
  EXPECT_EQ(one.threads_used(), 1u);
  EXPECT_EQ(eight.threads_used(), 4u);  // capped at the job count
  EXPECT_EQ(one.runs_executed(), 4u);
  EXPECT_EQ(eight.runs_executed(), 4u);
  EXPECT_EQ(eight.cache_hits(), 0u);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    EXPECT_EQ(seq[i].tag, par[i].tag);
    expect_reports_equal(seq[i].get(), par[i].get());
  }
}

TEST(Sweep, SharedModelMatchesPerJobModel) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  const auto shared =
      std::make_shared<const workload::ImageCompareModel>(workload::make_als_model(opt));
  Grid grid;
  grid.add_als(PlacementStrategy::kRealTime, opt);
  grid.add_als(PlacementStrategy::kRealTime, opt, shared);
  SweepRunner<> runner;
  // Both cells carry the same fingerprint (the model is a pure function of
  // opt.scale); disable memoization so both actually execute — the point is
  // that the shared-model code path computes the same report.
  runner.set_cache(nullptr);
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_executed(), 2u);
  expect_reports_equal(out[0].get(), out[1].get());
}

// ---------------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------------

TEST(Sweep, DerivedSeedsDoNotCollide) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 2012ull, 0xdeadbeefull}) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      EXPECT_TRUE(seen.insert(derive_seed(base, i)).second)
          << "collision at base=" << base << " index=" << i;
    }
  }
}

TEST(Sweep, DerivedSeedsAreAppendStable) {
  // A job's seed depends only on (base, index) — adding jobs after it (or
  // asking again) never changes it.
  EXPECT_EQ(derive_seed(2012, 3), derive_seed(2012, 3));
  EXPECT_NE(derive_seed(2012, 3), derive_seed(2012, 4));
  EXPECT_NE(derive_seed(2012, 0), derive_seed(2013, 0));
  EXPECT_NE(derive_seed(2012, 0), 2012u);  // whitened, not passed through
}

// ---------------------------------------------------------------------------
// Configuration fingerprints.
// ---------------------------------------------------------------------------

TEST(Sweep, FingerprintIsStable) {
  PaperScenarioOptions opt;
  opt.scale = 0.2;
  const auto a = scenario_fingerprint("als", "real-time", opt);
  const auto b = scenario_fingerprint("als", "real-time", opt);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);  // same options => same hash, every time
}

TEST(Sweep, FingerprintSeesEveryField) {
  const PaperScenarioOptions base;
  const auto fp0 = scenario_fingerprint("blast", "real-time", base);
  ASSERT_TRUE(fp0.has_value());

  std::vector<std::pair<const char*, PaperScenarioOptions>> variants;
  auto vary = [&](const char* field, auto mutate) {
    PaperScenarioOptions v = base;
    mutate(v);
    variants.emplace_back(field, std::move(v));
  };
  vary("worker_vms", [](auto& v) { v.worker_vms = 5; });
  vary("cores_per_vm", [](auto& v) { v.cores_per_vm = 2; });
  vary("nic", [](auto& v) { v.nic = mbps(10); });
  vary("multicore", [](auto& v) { v.multicore = false; });
  vary("scale", [](auto& v) { v.scale = 0.5; });
  vary("seed", [](auto& v) { v.seed = 2013; });
  vary("prefetch", [](auto& v) { v.prefetch = 2; });
  vary("requeue_on_failure", [](auto& v) { v.requeue_on_failure = true; });

  std::set<Fingerprint> seen{*fp0};
  for (const auto& [field, opt] : variants) {
    const auto fp = scenario_fingerprint("blast", "real-time", opt);
    ASSERT_TRUE(fp.has_value()) << field;
    EXPECT_TRUE(seen.insert(*fp).second)
        << "changing field '" << field << "' did not change the fingerprint";
  }
  // App kind and mode are part of the key too.
  EXPECT_NE(*fp0, *scenario_fingerprint("als", "real-time", base));
  EXPECT_NE(*fp0, *scenario_fingerprint("blast", "sequential", base));
}

TEST(Sweep, HookedOptionsAreNotFingerprintable) {
  PaperScenarioOptions opt;
  EXPECT_TRUE(workload::fingerprintable(opt));
  PaperScenarioOptions arranged = opt;
  arranged.arrange = [](sim::Simulation&, cluster::VirtualCluster&, core::FriedaRun&) {};
  EXPECT_FALSE(workload::fingerprintable(arranged));
  EXPECT_FALSE(scenario_fingerprint("als", "real-time", arranged).has_value());
  obs::MetricsRegistry registry;
  PaperScenarioOptions metered = opt;
  metered.metrics = &registry;
  EXPECT_FALSE(workload::fingerprintable(metered));
  EXPECT_FALSE(scenario_fingerprint("als", "real-time", metered).has_value());
}

// ---------------------------------------------------------------------------
// Memoization: cache hits, in-batch dedup, opt-outs.
// ---------------------------------------------------------------------------

TEST(Sweep, CacheHitServesIdenticalReport) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4242;  // distinctive: this cell belongs to this test's cache only
  ResultCache<core::RunReport> cache;

  auto make_jobs = [&] {
    Grid grid;
    grid.add_blast(PlacementStrategy::kRealTime, opt);
    grid.add_als(PlacementStrategy::kPrePartitionRemote, opt);
    return grid.take();
  };

  SweepRunner<> cold;
  cold.set_cache(&cache);
  const auto first = cold.run(make_jobs());
  EXPECT_EQ(cold.runs_executed(), 2u);
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_FALSE(first[0].from_cache);
  EXPECT_EQ(cache.size(), 2u);

  SweepRunner<> warm;
  warm.set_cache(&cache);
  const auto second = warm.run(make_jobs());
  EXPECT_EQ(warm.runs_requested(), 2u);
  EXPECT_EQ(warm.runs_executed(), 0u);
  EXPECT_EQ(warm.cache_hits(), 2u);
  EXPECT_EQ(warm.threads_used(), 0u);  // nothing left to execute
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(second[i].ok()) << second[i].error;
    EXPECT_TRUE(second[i].from_cache);
    expect_reports_equal(first[i].get(), second[i].get());
  }
}

TEST(Sweep, InBatchDuplicatesExecuteOnce) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4243;
  ResultCache<core::RunReport> cache;
  Grid grid;
  const auto a = grid.add_blast(PlacementStrategy::kRealTime, opt);
  const auto b = grid.add_als(PlacementStrategy::kRealTime, opt);
  const auto c = grid.add_blast(PlacementStrategy::kRealTime, opt);  // duplicate of a
  SweepRunner<> runner(SweepOptions{2});
  runner.set_cache(&cache);
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_requested(), 3u);
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 1u);
  ASSERT_TRUE(out[a].ok());
  ASSERT_TRUE(out[b].ok());
  ASSERT_TRUE(out[c].ok());
  EXPECT_FALSE(out[a].from_cache);
  EXPECT_TRUE(out[c].from_cache);
  expect_reports_equal(out[a].get(), out[c].get());
}

TEST(Sweep, AdHocJobsAreNeverCached) {
  // Backend-agnostic by design: under the process backend the job body runs
  // in a forked child, so execution is asserted through the runner's
  // counters, not a parent-side flag the child could never touch.
  ResultCache<core::RunReport> cache;
  auto make_jobs = [] {
    Grid grid;
    grid.add("adhoc", [] {
      core::RunReport r;
      r.app = "adhoc";
      return r;
    });
    return grid.take();
  };
  SweepRunner<> runner;
  runner.set_cache(&cache);
  (void)runner.run(make_jobs());
  EXPECT_EQ(runner.runs_executed(), 1u);
  (void)runner.run(make_jobs());
  EXPECT_EQ(runner.runs_executed(), 1u);  // executed again, not served
  EXPECT_EQ(runner.cache_hits(), 0u);
  EXPECT_EQ(cache.size(), 0u);  // never entered the cache
}

TEST(Sweep, NullCacheExecutesEverything) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4244;
  SweepRunner<> runner;
  runner.set_cache(nullptr);  // the memoization opt-out
  Grid grid;
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  grid.add_blast(PlacementStrategy::kRealTime, opt);  // duplicate, still runs
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 0u);
  expect_reports_equal(out[0].get(), out[1].get());
}

TEST(Sweep, GlobalCacheSpansGrids) {
  // The driver pattern: two independent ScenarioSweeps in one process share
  // the process-global cache, so a baseline re-run in the second grid is
  // served from the first.  Distinctive seed keeps this test self-contained.
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 0xfeedbeef;
  ScenarioSweep first;
  const auto id1 = first.grid().add_blast(PlacementStrategy::kRealTime, opt);
  first.run();
  EXPECT_EQ(first.runs_executed(), 1u);

  ScenarioSweep second;
  const auto id2 = second.grid().add_blast(PlacementStrategy::kRealTime, opt);
  const auto id3 = second.grid().add_blast(PlacementStrategy::kPrePartitionRemote, opt);
  second.run();
  EXPECT_EQ(second.runs_requested(), 2u);
  EXPECT_EQ(second.runs_executed(), 1u);  // only the pre-partition cell is new
  EXPECT_EQ(second.cache_hits(), 1u);
  EXPECT_TRUE(second.outcome(id2).from_cache);
  EXPECT_FALSE(second.outcome(id3).from_cache);
  expect_reports_equal(first.report(id1), second.report(id2));
}

// ---------------------------------------------------------------------------
// Cost-aware scheduling.
// ---------------------------------------------------------------------------

TEST(Sweep, LongestFirstIsStableOnTies) {
  EXPECT_EQ(detail::longest_first({1.0, 3.0, 2.0, 3.0}),
            (std::vector<std::size_t>{1, 3, 2, 0}));
  EXPECT_EQ(detail::longest_first({5.0, 5.0, 5.0}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(detail::longest_first({}).empty());
}

TEST(Sweep, ScheduleIsLongestFirstWithJobOrderSlots) {
  // Ad-hoc jobs with explicit cost overrides, submitted cheapest-first; the
  // schedule must reverse them while outcome slots stay in job order.
  Grid grid;
  for (int i = 0; i < 6; ++i) {
    grid.add("cost" + std::to_string(i),
             [i] {
               core::RunReport r;
               r.units_total = static_cast<std::size_t>(i);
               return r;
             },
             /*cost=*/static_cast<double>(i));
  }
  SweepRunner<> runner(SweepOptions{3});
  runner.set_cache(nullptr);
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.schedule(), (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok());
    EXPECT_EQ(out[i].tag, "cost" + std::to_string(i));
    EXPECT_EQ(out[i].get().units_total, i);
  }
}

TEST(Sweep, ScenarioCostsOrderSensibly) {
  PaperScenarioOptions opt;
  opt.scale = 0.2;
  // A sequential baseline (1 slot) is the long pole of any Table-I grid.
  EXPECT_GT(scenario_cost("blast", true, opt), scenario_cost("blast", false, opt));
  // More data, more cost; more slots, less cost.
  PaperScenarioOptions big = opt;
  big.scale = 0.4;
  EXPECT_GT(scenario_cost("blast", false, big), scenario_cost("blast", false, opt));
  PaperScenarioOptions narrow = opt;
  narrow.multicore = false;
  EXPECT_GT(scenario_cost("blast", false, narrow), scenario_cost("blast", false, opt));
  // Grid stamps scenario jobs with these costs: sequential sorts first.
  // Calibration is pinned off — earlier tests in this process may have
  // taught the global calibrator rates that would rescale the costs.
  Grid grid;
  grid.set_calibrator(nullptr);
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  grid.add_blast_sequential(opt);
  auto jobs = grid.take();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_GT(jobs[1].cost, jobs[0].cost);
  SweepRunner<> runner(SweepOptions{1});
  runner.set_cache(nullptr);
  runner.set_calibrator(nullptr);
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(runner.schedule(), (std::vector<std::size_t>{1, 0}));
  EXPECT_TRUE(out[0].ok() && out[1].ok());
}

// ---------------------------------------------------------------------------
// Ordering and isolation.
// ---------------------------------------------------------------------------

TEST(Sweep, ResultsKeepJobOrderUnderSkewedTimings) {
  // Early jobs sleep longest, so completion order is roughly the reverse of
  // submission order; result slots must still line up with job indices.
  constexpr std::size_t kJobs = 16;
  std::vector<Job<std::size_t>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back({"job" + std::to_string(i), [i] {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds((kJobs - i) * 3));
                      return i;
                    }});
  }
  SweepRunner<std::size_t> runner(SweepOptions{8});
  const auto out = runner.run(std::move(jobs));
  ASSERT_EQ(out.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[i].tag, "job" + std::to_string(i));
    ASSERT_TRUE(out[i].ok());
    EXPECT_EQ(out[i].get(), i);
  }
}

TEST(Sweep, ThrowingJobIsIsolated) {
  std::vector<Job<int>> jobs;
  jobs.push_back({"fine-a", [] { return 1; }});
  jobs.push_back({"boom", []() -> int { throw std::runtime_error("deliberate failure"); }});
  jobs.push_back({"fine-b", [] { return 3; }});
  SweepRunner<int> runner(SweepOptions{2});
  const auto out = runner.run(std::move(jobs));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(out[0].get(), 1);
  EXPECT_FALSE(out[1].ok());
  EXPECT_NE(out[1].error.find("deliberate failure"), std::string::npos);
  EXPECT_THROW(out[1].get(), FriedaError);
  try {
    out[1].get();
  } catch (const FriedaError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << "error must name the failed job";
  }
  EXPECT_TRUE(out[2].ok());
  EXPECT_EQ(out[2].get(), 3);
}

TEST(Sweep, FailedRunsAreNotCached) {
  ResultCache<int> cache;
  StableHasher h;
  const auto fp = h.mix_str("boom-key").digest();
  std::vector<Job<int>> jobs;
  jobs.push_back({"boom", []() -> int { throw std::runtime_error("nope"); }, fp});
  SweepRunner<int> runner;
  runner.set_cache(&cache);
  const auto out = runner.run(std::move(jobs));
  EXPECT_FALSE(out[0].ok());
  EXPECT_EQ(cache.size(), 0u);  // errors never enter the cache
}

TEST(Sweep, EmptyBatchAndThreadResolution) {
  SweepRunner<int> runner;
  EXPECT_TRUE(runner.run({}).empty());
  // Never more threads than jobs; at least one thread for a non-empty batch.
  EXPECT_EQ(detail::resolve_threads(8, 3), 3u);
  EXPECT_EQ(detail::resolve_threads(2, 100), 2u);
  EXPECT_GE(detail::resolve_threads(0, 100), 1u);
}

// ---------------------------------------------------------------------------
// FRIEDA_SWEEP_THREADS validation.
// ---------------------------------------------------------------------------

TEST(Sweep, EnvVarOverridesThreadCount) {
  ASSERT_EQ(setenv("FRIEDA_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(detail::resolve_threads(0, 100), 3u);
  EXPECT_EQ(detail::resolve_threads(0, 2), 2u);   // still capped by jobs
  EXPECT_EQ(detail::resolve_threads(5, 100), 5u); // explicit request wins
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
}

TEST(Sweep, EnvVarParserRejectsGarbage) {
  EXPECT_EQ(detail::parse_threads_env("4"), 4u);
  EXPECT_EQ(detail::parse_threads_env("4096"), 4096u);
  EXPECT_EQ(detail::parse_threads_env(nullptr), 0u);
  EXPECT_EQ(detail::parse_threads_env(""), 0u);
  EXPECT_EQ(detail::parse_threads_env("garbage"), 0u);
  EXPECT_EQ(detail::parse_threads_env("0"), 0u);
  EXPECT_EQ(detail::parse_threads_env("-3"), 0u);
  EXPECT_EQ(detail::parse_threads_env("8x"), 0u);          // trailing junk
  EXPECT_EQ(detail::parse_threads_env("3.5"), 0u);         // not an integer
  EXPECT_EQ(detail::parse_threads_env("4097"), 0u);        // above the cap
  EXPECT_EQ(detail::parse_threads_env("99999999999999999999"), 0u);  // overflow
}

TEST(Sweep, InvalidEnvVarFallsBackLikeUnset) {
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
  const std::size_t unset = detail::resolve_threads(0, 100);
  for (const char* bad : {"garbage", "0", "-3", "8x", "99999999999999999999"}) {
    ASSERT_EQ(setenv("FRIEDA_SWEEP_THREADS", bad, 1), 0);
    EXPECT_EQ(detail::resolve_threads(0, 100), unset)
        << "FRIEDA_SWEEP_THREADS='" << bad << "' must fall back to the unset default";
  }
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
}

// ---------------------------------------------------------------------------
// ScenarioSweep lifecycle.
// ---------------------------------------------------------------------------

TEST(Sweep, RunTwiceThrows) {
  ScenarioSweep sweep;
  sweep.grid().add("noop", [] { return core::RunReport{}; });
  EXPECT_FALSE(sweep.ran());
  sweep.run();
  EXPECT_TRUE(sweep.ran());
  EXPECT_TRUE(sweep.outcome(0).ok());
  EXPECT_THROW(sweep.run(), FriedaError);
}

TEST(Sweep, OutcomeBeforeRunThrows) {
  ScenarioSweep sweep;
  const auto id = sweep.grid().add("noop", [] { return core::RunReport{}; });
  EXPECT_THROW(sweep.outcome(id), FriedaError);
  EXPECT_THROW(sweep.report(id), FriedaError);
  sweep.run();
  EXPECT_TRUE(sweep.outcome(id).ok());
  EXPECT_THROW(sweep.outcome(id + 1), FriedaError);  // still range-checked
}

// ---------------------------------------------------------------------------
// Runner-owned metrics.
// ---------------------------------------------------------------------------

TEST(Sweep, RunnerMetricsTrackProgress) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4245;
  ResultCache<core::RunReport> cache;
  SweepRunner<> runner(SweepOptions{2});
  runner.set_cache(&cache);
  auto make_jobs = [&] {
    Grid grid;
    grid.add_blast(PlacementStrategy::kRealTime, opt);
    grid.add_als(PlacementStrategy::kRealTime, opt);
    return grid.take();
  };
  (void)runner.run(make_jobs());
  (void)runner.run(make_jobs());  // warm: both served from cache
  const auto& m = runner.metrics();
  const auto* completed = m.find_counter("sweep.jobs_completed");
  const auto* hits = m.find_counter("sweep.cache_hits");
  const auto* executed = m.find_counter("sweep.runs_executed");
  const auto* in_flight = m.find_gauge("sweep.in_flight");
  const auto* wall = m.find_stats("sweep.wall_per_job_s");
  ASSERT_NE(completed, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(executed, nullptr);
  ASSERT_NE(in_flight, nullptr);
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(completed->value(), 2u);  // dispatched jobs only (first run)
  EXPECT_EQ(executed->value(), 2u);
  EXPECT_EQ(hits->value(), 2u);       // second run was fully cached
  EXPECT_EQ(in_flight->value(), 0.0); // everything drained
  EXPECT_EQ(wall->count(), 2u);
  EXPECT_GT(wall->mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Concurrency: shared MetricsRegistry across jobs, and concurrent
// lookup/insert on one shared ResultCache from parallel sweeps.  Run these
// under the asan and tsan presets (see docs/performance.md).
// ---------------------------------------------------------------------------

TEST(Sweep, SharedMetricsRegistryAcrossJobs) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kJobs = 32;
  std::vector<Job<int>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back({"metrics" + std::to_string(i), [i, &registry] {
                      const auto name = "job" + std::to_string(i);
                      auto& counter = registry.counter(name + ".units");
                      auto& stats = registry.stats(name + ".latency");
                      for (int k = 0; k < 100; ++k) {
                        counter.inc();
                        stats.add(static_cast<double>(k));
                      }
                      registry.gauge(name + ".makespan").set(static_cast<double>(i));
                      return static_cast<int>(registry.size() > 0);
                    }});
  }
  SweepRunner<int> runner(SweepOptions{8});
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(registry.size(), 3 * kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    const auto name = "job" + std::to_string(i);
    const auto* counter = registry.find_counter(name + ".units");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 100u);
    const auto* stats = registry.find_stats(name + ".latency");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->count(), 100u);
    const auto* gauge = registry.find_gauge(name + ".makespan");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), static_cast<double>(i));
  }
  // Exports see a consistent snapshot after the sweep.
  EXPECT_NE(registry.csv().find("job0.units,counter,100"), std::string::npos);
}

TEST(Sweep, ConcurrentSweepsShareOneCache) {
  // Four concurrent sweeps over overlapping key sets race lookup/insert on
  // one cache; every outcome must be correct and the cache must end with
  // exactly one entry per distinct key.
  ResultCache<int> cache;
  constexpr std::size_t kSweeps = 4;
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kJobsPerSweep = 24;
  std::vector<std::vector<JobOutcome<int>>> results(kSweeps);
  std::vector<std::thread> sweeps;
  for (std::size_t s = 0; s < kSweeps; ++s) {
    sweeps.emplace_back([s, &cache, &results] {
      std::vector<Job<int>> jobs;
      for (std::size_t i = 0; i < kJobsPerSweep; ++i) {
        const std::size_t key = (s + i) % kKeys;  // overlap across sweeps
        StableHasher h;
        h.mix_str("concurrent").mix_u64(key);
        jobs.push_back({"k" + std::to_string(key),
                        [key] { return static_cast<int>(key * 10); }, h.digest()});
      }
      SweepRunner<int> runner(SweepOptions{4});
      runner.set_cache(&cache);
      results[s] = runner.run(std::move(jobs));
    });
  }
  for (auto& t : sweeps) t.join();
  EXPECT_EQ(cache.size(), kKeys);
  for (std::size_t s = 0; s < kSweeps; ++s) {
    ASSERT_EQ(results[s].size(), kJobsPerSweep);
    for (std::size_t i = 0; i < kJobsPerSweep; ++i) {
      ASSERT_TRUE(results[s][i].ok()) << results[s][i].error;
      EXPECT_EQ(results[s][i].get(), static_cast<int>(((s + i) % kKeys) * 10));
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded result cache: LRU eviction (the LRU itself: test_lru_cache.cpp).
// ---------------------------------------------------------------------------

Fingerprint key_of(std::uint64_t i) {
  StableHasher h;
  h.mix_str("lru-test").mix_u64(i);
  return h.digest();
}

TEST(ResultCacheLru, RunnerCountsEvictionsInMetrics) {
  EXPECT_EQ(ResultCache<int>().max_entries(), ResultCache<int>::kDefaultMaxEntries);
  ResultCache<int> cache(1);
  SweepRunner<int> runner(SweepOptions{1});
  runner.set_cache(&cache);
  std::vector<Job<int>> jobs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    jobs.push_back({"j" + std::to_string(i), [i] { return static_cast<int>(i); },
                    key_of(100 + i)});
  }
  const auto out = runner.run(std::move(jobs));
  for (const auto& o : out) EXPECT_TRUE(o.ok());
  // Four distinct keys through a 1-entry cache: three insert-evictions.
  const auto* evicted = runner.metrics().find_counter("sweep.cache_evictions");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->value(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Measured-cost calibration.
// ---------------------------------------------------------------------------

TEST(Calibrator, ConvergesToObservedRate) {
  CostCalibrator cal;
  EXPECT_FALSE(cal.rate("als/rt").has_value());
  EXPECT_DOUBLE_EQ(cal.calibrated("als/rt", 10.0), 10.0);  // unseen: raw passthrough

  // Jobs of this class consistently take 0.5 s per cost unit.
  for (int i = 0; i < 32; ++i) cal.observe("als/rt", 4.0, 2.0);
  ASSERT_TRUE(cal.rate("als/rt").has_value());
  EXPECT_NEAR(*cal.rate("als/rt"), 0.5, 1e-9);
  EXPECT_NEAR(cal.calibrated("als/rt", 10.0), 5.0, 1e-6);

  // A drifting machine: the EWMA tracks the new rate.
  for (int i = 0; i < 64; ++i) cal.observe("als/rt", 4.0, 4.0);
  EXPECT_NEAR(*cal.rate("als/rt"), 1.0, 1e-3);

  // Garbage observations are ignored.
  cal.observe("als/rt", 0.0, 1.0);
  cal.observe("als/rt", 1.0, -1.0);
  EXPECT_NEAR(*cal.rate("als/rt"), 1.0, 1e-3);
  EXPECT_EQ(cal.classes(), 1u);
  cal.clear();
  EXPECT_EQ(cal.classes(), 0u);
}

TEST(Calibrator, RunnerFeedsMeasuredWallTimesPerClass) {
  CostCalibrator cal;
  SweepRunner<int> runner(SweepOptions{2});
  runner.set_cache(nullptr);
  runner.set_calibrator(&cal);
  std::vector<Job<int>> jobs;
  for (int i = 0; i < 4; ++i) {
    Job<int> job{"sleepy" + std::to_string(i), [] {
                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                   return 1;
                 }};
    job.cost = 2.0;
    job.calibration = Job<int>::Calibration{"test/sleepy", 2.0};
    jobs.push_back(std::move(job));
  }
  (void)runner.run(std::move(jobs));
  ASSERT_TRUE(cal.rate("test/sleepy").has_value());
  // ~20 ms over 2 cost units => ~10 ms per unit; generous bounds for CI noise.
  EXPECT_GT(*cal.rate("test/sleepy"), 0.002);
  EXPECT_LT(*cal.rate("test/sleepy"), 1.0);
  // Next grid of the same class schedules with the measured rate.
  EXPECT_NEAR(cal.calibrated("test/sleepy", 2.0), 2.0 * *cal.rate("test/sleepy"), 1e-12);
}

TEST(Calibrator, FailedJobsTeachNothing) {
  CostCalibrator cal;
  SweepRunner<int> runner(SweepOptions{1});
  runner.set_cache(nullptr);
  runner.set_calibrator(&cal);
  std::vector<Job<int>> jobs;
  Job<int> bad{"boom", []() -> int { throw std::runtime_error("no"); }};
  bad.calibration = Job<int>::Calibration{"test/boom", 1.0};
  jobs.push_back(std::move(bad));
  const auto out = runner.run(std::move(jobs));
  EXPECT_FALSE(out[0].ok());
  EXPECT_FALSE(cal.rate("test/boom").has_value());
}

TEST(Calibrator, GridStampsCalibratedCostsAndCalibrationTags) {
  CostCalibrator cal;
  cal.observe("blast/real-time", 1.0, 3.0);  // learned rate: 3 s per unit
  PaperScenarioOptions opt;
  opt.scale = 0.2;
  Grid grid;
  grid.set_calibrator(&cal);
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  auto jobs = grid.take();
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_TRUE(jobs[0].calibration.has_value());
  EXPECT_EQ(jobs[0].calibration->key, "blast/real-time");
  const double raw = scenario_cost("blast", false, opt);
  EXPECT_DOUBLE_EQ(jobs[0].calibration->raw_cost, raw);
  EXPECT_NEAR(jobs[0].cost, 3.0 * raw, 1e-9);

  // With calibration disabled the static estimate is used untouched.
  Grid pinned;
  pinned.set_calibrator(nullptr);
  pinned.add_blast(PlacementStrategy::kRealTime, opt);
  auto raw_jobs = pinned.take();
  EXPECT_DOUBLE_EQ(raw_jobs[0].cost, raw);
}

// ---------------------------------------------------------------------------
// Backend selection (SweepOptions::backend, FRIEDA_SWEEP_BACKEND).
// ---------------------------------------------------------------------------

TEST(Backend, EnvParserIsExactMatchOnly) {
  EXPECT_EQ(detail::parse_backend_env(nullptr), std::nullopt);
  EXPECT_EQ(detail::parse_backend_env(""), std::nullopt);
  EXPECT_EQ(detail::parse_backend_env("thread"), SweepBackend::kThread);
  EXPECT_EQ(detail::parse_backend_env("process"), SweepBackend::kProcess);
  for (const char* bad :
       {"Thread", "PROCESS", " process", "process ", "fork", "threads", "1"}) {
    EXPECT_EQ(detail::parse_backend_env(bad), std::nullopt)
        << "'" << bad << "' must not select a backend";
  }
}

TEST(Backend, ResolutionPrecedenceAndFallbacks) {
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_BACKEND"), 0);
  EXPECT_EQ(detail::resolve_backend(std::nullopt, true), SweepBackend::kThread);
  EXPECT_EQ(detail::resolve_backend(SweepBackend::kProcess, true), SweepBackend::kProcess);
  // Codec-less result types always run on threads, even when asked not to.
  EXPECT_EQ(detail::resolve_backend(SweepBackend::kProcess, false), SweepBackend::kThread);

  ASSERT_EQ(setenv("FRIEDA_SWEEP_BACKEND", "process", 1), 0);
  EXPECT_EQ(detail::resolve_backend(std::nullopt, true), SweepBackend::kProcess);
  EXPECT_EQ(detail::resolve_backend(std::nullopt, false), SweepBackend::kThread);
  // An explicit option wins over the environment.
  EXPECT_EQ(detail::resolve_backend(SweepBackend::kThread, true), SweepBackend::kThread);

  // A typo warns and falls back to thread instead of guessing.
  ASSERT_EQ(setenv("FRIEDA_SWEEP_BACKEND", "Process", 1), 0);
  EXPECT_EQ(detail::resolve_backend(std::nullopt, true), SweepBackend::kThread);
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_BACKEND"), 0);
}

TEST(Backend, CodeclessRunnerFallsBackToThreadAndStillRuns) {
  SweepOptions opt;
  opt.backend = SweepBackend::kProcess;
  SweepRunner<int> runner(opt);  // int has no ReportCodec
  runner.set_cache(nullptr);
  std::vector<Job<int>> jobs;
  jobs.push_back({"one", [] { return 7; }});
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(out[0].get(), 7);
  EXPECT_EQ(runner.backend_used(), SweepBackend::kThread);
  EXPECT_EQ(runner.child_crashes(), 0u);
}

// ---------------------------------------------------------------------------
// Fork plumbing (exp/process_pool.hpp).
// ---------------------------------------------------------------------------

TEST(ProcessPool, RunInChildShipsResultsErrorsAndCrashes) {
  const auto ok = run_in_child([] { return std::string("payload"); });
  EXPECT_TRUE(ok.delivered);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.payload, "payload");

  const auto err =
      run_in_child([]() -> std::string { throw std::runtime_error("child says no"); });
  EXPECT_TRUE(err.delivered);
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.payload, "child says no");

  const auto aborted = run_in_child([]() -> std::string { std::abort(); });
  EXPECT_FALSE(aborted.delivered);
  EXPECT_NE(aborted.crash.find("signal"), std::string::npos) << aborted.crash;

  const auto exited = run_in_child([]() -> std::string { ::_exit(9); });
  EXPECT_FALSE(exited.delivered);
  EXPECT_NE(exited.crash.find("status 9"), std::string::npos) << exited.crash;
}

TEST(ProcessPool, ReadFrameRejectsTruncationAndGarbageLengths) {
  // Declared length outlives the writer: a crash mid-payload.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const unsigned char header[8] = {16, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::write(fds[1], header, 8), 8);
    ASSERT_EQ(::write(fds[1], "Rab", 3), 3);
    ::close(fds[1]);
    char status = 0;
    std::string payload;
    EXPECT_FALSE(detail::read_frame(fds[0], status, payload));
    ::close(fds[0]);
  }
  // A zero or absurd declared length is a corrupted stream, not a request
  // to allocate gigabytes.
  for (const unsigned char fill : {static_cast<unsigned char>(0),
                                   static_cast<unsigned char>(0xff)}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    unsigned char header[8];
    for (auto& b : header) b = fill;
    ASSERT_EQ(::write(fds[1], header, 8), 8);
    ::close(fds[1]);
    char status = 0;
    std::string payload;
    EXPECT_FALSE(detail::read_frame(fds[0], status, payload));
    ::close(fds[0]);
  }
}

// ---------------------------------------------------------------------------
// Process backend: identical results, isolated crashes.
// ---------------------------------------------------------------------------

TEST(ProcessBackend, MatchesThreadBackendFieldIdentically) {
  SweepOptions topt{2};
  topt.backend = SweepBackend::kThread;
  SweepOptions popt{2};
  popt.backend = SweepBackend::kProcess;
  SweepRunner<> threads(topt);
  SweepRunner<> procs(popt);
  threads.set_cache(nullptr);
  procs.set_cache(nullptr);
  const auto a = threads.run(scenario_jobs());
  const auto b = procs.run(scenario_jobs());
  EXPECT_EQ(procs.backend_used(), SweepBackend::kProcess);
  EXPECT_EQ(procs.child_crashes(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << a[i].error;
    ASSERT_TRUE(b[i].ok()) << b[i].error;
    EXPECT_EQ(a[i].tag, b[i].tag);
    expect_reports_equal(a[i].get(), b[i].get());
  }
}

TEST(ProcessBackend, CrashedChildrenAreIsolatedJobOutcomes) {
  // Thread-backend reference for the healthy cells.
  SweepOptions topt{2};
  topt.backend = SweepBackend::kThread;
  SweepRunner<> ref(topt);
  ref.set_cache(nullptr);
  const auto healthy = ref.run(scenario_jobs());

  // The same grid plus four saboteurs.  These run in forked children, so
  // the violent deaths below never touch this process.
  auto jobs = scenario_jobs();
  jobs.push_back({"segv", []() -> core::RunReport {
                    std::raise(SIGSEGV);
                    return {};
                  }});
  jobs.push_back({"abort", []() -> core::RunReport { std::abort(); }});
  jobs.push_back({"exit7", []() -> core::RunReport { ::_exit(7); }});
  jobs.push_back({"throws", []() -> core::RunReport {
                    throw std::runtime_error("child says no");
                  }});

  SweepOptions popt{2};
  popt.backend = SweepBackend::kProcess;
  SweepRunner<> runner(popt);
  runner.set_cache(nullptr);
  const auto out = runner.run(std::move(jobs));
  ASSERT_EQ(out.size(), healthy.size() + 4);
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    expect_reports_equal(out[i].get(), healthy[i].get());
  }
  const auto& segv = out[healthy.size()];
  const auto& aborted = out[healthy.size() + 1];
  const auto& exited = out[healthy.size() + 2];
  const auto& threw = out[healthy.size() + 3];
  // Bare metal reports the fatal signal; a sanitizer runtime intercepts
  // the fault and turns it into a nonzero exit.  Both are crash outcomes.
  const auto looks_like_crash = [](const std::string& error) {
    return error.find("signal") != std::string::npos ||
           error.find("status") != std::string::npos;
  };
  EXPECT_FALSE(segv.ok());
  EXPECT_TRUE(looks_like_crash(segv.error)) << segv.error;
  EXPECT_FALSE(aborted.ok());
  EXPECT_TRUE(looks_like_crash(aborted.error)) << aborted.error;
  EXPECT_FALSE(exited.ok());
  EXPECT_NE(exited.error.find("status 7"), std::string::npos) << exited.error;
  // A thrown exception is the job's own error — same what() the thread
  // backend records — not a crash.
  EXPECT_FALSE(threw.ok());
  EXPECT_EQ(threw.error, "child says no");
  EXPECT_EQ(runner.child_crashes(), 3u);
  const auto* crashes = runner.metrics().find_counter("sweep.child_crashes");
  ASSERT_NE(crashes, nullptr);
  EXPECT_EQ(crashes->value(), 3u);
}

// ---------------------------------------------------------------------------
// Steal-half dispatch.
// ---------------------------------------------------------------------------

TEST(Stealing, SkewedGridStealsWithIdenticalResults) {
  auto make_jobs = [] {
    std::vector<Job<std::size_t>> jobs;
    // One long pole plus many quick cells.  The cost stamps pin the
    // longest-first schedule, so the pole is dealt to worker 0 with half the
    // quick cells queued behind it.
    jobs.push_back({"pole",
                    [] {
                      std::this_thread::sleep_for(std::chrono::milliseconds(80));
                      return std::size_t{1000};
                    },
                    std::nullopt, 100.0});
    for (std::size_t i = 0; i < 12; ++i) {
      jobs.push_back({"quick" + std::to_string(i), [i] { return i; }, std::nullopt, 1.0});
    }
    return jobs;
  };

  SweepRunner<std::size_t> stealing(SweepOptions{2});
  const auto stolen = stealing.run(make_jobs());
  // Worker 1 drains its dealt half in microseconds while the pole sleeps,
  // so it must have stolen from behind the pole at least once.
  EXPECT_GT(stealing.steals(), 0u);
  const auto* steals_ctr = stealing.metrics().find_counter("sweep.steals");
  ASSERT_NE(steals_ctr, nullptr);
  EXPECT_EQ(steals_ctr->value(), stealing.steals());

  SweepOptions pinned{2};
  pinned.steal = false;
  SweepRunner<std::size_t> stranded(pinned);
  const auto kept = stranded.run(make_jobs());
  EXPECT_EQ(stranded.steals(), 0u);

  SweepRunner<std::size_t> seq(SweepOptions{1});
  const auto serial = seq.run(make_jobs());

  ASSERT_EQ(stolen.size(), kept.size());
  ASSERT_EQ(stolen.size(), serial.size());
  for (std::size_t i = 0; i < stolen.size(); ++i) {
    EXPECT_EQ(stolen[i].tag, kept[i].tag);
    EXPECT_EQ(stolen[i].get(), kept[i].get());
    EXPECT_EQ(stolen[i].get(), serial[i].get());
  }
}

}  // namespace
}  // namespace frieda::exp
