// Job-description layer over the sweep engine for the paper's scenario grids.
//
// A `Grid` accumulates tagged `RunReport` jobs — ad-hoc callables or the
// common paper scenarios (ALS/BLAST × placement strategy ×
// `PaperScenarioOptions`) — and hands the batch to a `SweepRunner`.  Adding a
// job returns its `JobId`; after the sweep, that id indexes the outcome, so a
// bench driver reads results exactly where it used to call `run_als(...)`.
//
// Scenario jobs are annotated for the scheduler on the way in: a config
// fingerprint (memoization key, omitted when the options carry
// arrange/tracer/metrics hooks) and a relative cost estimate (units × scale
// over instance slots) for longest-first dispatch.  Ad-hoc `add()` jobs stay
// unhashable and uncached — the engine cannot see inside the callable — but
// accept an explicit cost override.
//
// `ScenarioSweep` bundles the grid with a runner and keeps the outcomes:
//
//   exp::ScenarioSweep sweep;
//   const auto pre = sweep.grid().add_als(PlacementStrategy::kPrePartitionRemote, opt);
//   const auto rt  = sweep.grid().add_als(PlacementStrategy::kRealTime, opt);
//   sweep.run();
//   use(sweep.report(pre), sweep.report(rt));
//
// Jobs that share a dataset scale can share one immutable workload model
// (the per-job fixed setup cost is paid once): build it with
// `workload::make_als_model` / `make_blast_model` and pass the shared_ptr to
// the `add_*` overloads below.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "workload/scenarios.hpp"

namespace frieda::exp {

/// Index of a job within a Grid; indexes the outcomes after the sweep.
using JobId = std::size_t;

/// Builder for a batch of tagged scenario jobs.
class Grid {
 public:
  /// Jobs keep whatever seed their options carry.
  Grid() = default;

  /// Every scenario job added afterwards has its `opt.seed` overridden with
  /// `derive_seed(seed_base, job_index)` — append-stable per-job seeds for
  /// grids that want independent randomness per cell.
  explicit Grid(std::uint64_t seed_base) : seed_base_(seed_base), derive_seeds_(true) {}

  /// Add an arbitrary job (any callable returning a RunReport).  Never
  /// memoized; `cost` is the relative wall-time estimate used for
  /// longest-first dispatch (default: unit cost, i.e. FIFO among peers).
  JobId add(std::string tag, std::function<core::RunReport()> fn, double cost = 1.0);

  /// Paper scenarios; `tag` defaults to "<app>/<strategy>#<index>".
  JobId add_als(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                std::string tag = {});
  JobId add_blast(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                  std::string tag = {});
  JobId add_als_sequential(workload::PaperScenarioOptions opt, std::string tag = {});
  JobId add_blast_sequential(workload::PaperScenarioOptions opt, std::string tag = {});

  /// Shared-dataset variants: the model is built once by the caller
  /// (workload::make_*_model) and read concurrently by every job that uses it.
  JobId add_als(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                std::shared_ptr<const workload::ImageCompareModel> app, std::string tag = {});
  JobId add_blast(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                  std::shared_ptr<const workload::BlastModel> app, std::string tag = {});
  JobId add_als_sequential(workload::PaperScenarioOptions opt,
                           std::shared_ptr<const workload::ImageCompareModel> app,
                           std::string tag = {});
  JobId add_blast_sequential(workload::PaperScenarioOptions opt,
                             std::shared_ptr<const workload::BlastModel> app,
                             std::string tag = {});

  /// Jobs accumulated so far.
  std::size_t size() const { return jobs_.size(); }

  /// Replace the cost calibrator consulted when annotating scenario jobs
  /// (default: the process-global CostCalibrator, which the runner feeds
  /// with measured wall times).  nullptr pins jobs to the static
  /// `scenario_cost` estimate — use in tests that assert exact schedules.
  void set_calibrator(CostCalibrator* calibrator) { calibrator_ = calibrator; }

  /// Move the batch out (the grid is empty afterwards).
  std::vector<Job<core::RunReport>> take() { return std::move(jobs_); }

 private:
  // Apply the derived-seed policy for the job about to occupy `index`.
  void stamp_seed(workload::PaperScenarioOptions& opt, JobId index) const;
  std::string default_tag(const char* app, const char* mode, JobId index) const;
  // Annotate (fingerprint + cost) and push one paper-scenario job.
  JobId push_scenario(const char* app, const char* mode, bool sequential,
                      const workload::PaperScenarioOptions& opt, std::string tag,
                      std::function<core::RunReport()> fn);

  std::uint64_t seed_base_ = 0;
  bool derive_seeds_ = false;
  CostCalibrator* calibrator_ = &CostCalibrator::global();
  std::vector<Job<core::RunReport>> jobs_;
};

/// A grid plus the runner that executes it and the outcomes it produced.
/// Lifecycle is explicit and checked: add jobs, run() exactly once, then
/// query outcomes — run() on an already-run sweep and outcome() on a
/// never-run sweep both throw FriedaError.
class ScenarioSweep {
 public:
  explicit ScenarioSweep(SweepOptions opt = {}) : runner_(opt) {}

  /// The job builder; add jobs here before calling run().
  Grid& grid() { return grid_; }

  /// Execute every accumulated job; blocks until all finished.  Callable
  /// exactly once per sweep (throws FriedaError on a second call — build a
  /// new ScenarioSweep to re-run).
  void run();

  /// True once run() has executed.
  bool ran() const { return ran_; }

  /// Outcome of job `id`; throws FriedaError before run().
  const JobOutcome<core::RunReport>& outcome(JobId id) const;

  /// Report of job `id`; throws FriedaError naming the job if it failed.
  const core::RunReport& report(JobId id) const { return outcome(id).get(); }

  /// Jobs executed by run().
  std::size_t jobs() const { return outcomes_.size(); }

  /// Pool width of the executed sweep.
  std::size_t threads_used() const { return runner_.threads_used(); }

  /// Wall-clock seconds of the executed sweep.
  double wall_seconds() const { return runner_.wall_seconds(); }

  /// Memoization statistics of the executed sweep (see SweepRunner).
  std::size_t runs_requested() const { return runner_.runs_requested(); }
  std::size_t runs_executed() const { return runner_.runs_executed(); }
  std::size_t cache_hits() const { return runner_.cache_hits(); }

  /// Dispatch order of the executed jobs (longest estimated cost first).
  const std::vector<std::size_t>& schedule() const { return runner_.schedule(); }

  /// The runner's progress metrics (jobs-completed / cache-hit counters,
  /// in-flight gauge, wall-per-job stats).
  obs::MetricsRegistry& metrics() { return runner_.metrics(); }

  /// Replace or disable the consulted result cache (see SweepRunner).
  void set_cache(ResultCache<core::RunReport>* cache) { runner_.set_cache(cache); }

  /// Replace or disable cost calibration for both the grid's job
  /// annotations and the runner's measured-wall-time feedback.
  void set_calibrator(CostCalibrator* calibrator) {
    grid_.set_calibrator(calibrator);
    runner_.set_calibrator(calibrator);
  }

 private:
  Grid grid_;
  SweepRunner<core::RunReport> runner_;
  std::vector<JobOutcome<core::RunReport>> outcomes_;
  bool ran_ = false;
};

}  // namespace frieda::exp
