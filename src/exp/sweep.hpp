// Parallel sweep engine: memoized, cost-aware batch execution of scenario
// runs on a thread pool or a fork-based process pool.
//
// The paper's entire evaluation — Table I, Figures 6–7, the eight ablations —
// is a grid of *independent, deterministic* simulation runs.  A `SweepRunner`
// executes such a grid on a fixed pool of workers and returns results **in
// job order**, regardless of backend, worker count, completion order, or
// steal order, so a sweep's tables and CSVs are byte-identical to running
// the same jobs sequentially.
//
// Backends (SweepOptions::backend, FRIEDA_SWEEP_BACKEND; see
// docs/performance.md, "Multi-process sweeps and work stealing"):
//   * kThread (default) — jobs run on pool threads in this address space.
//   * kProcess — each job executes in a forked child and ships its report
//     back over a pipe (exp/process_pool.hpp, frieda/report_io.hpp).  A
//     child that SIGSEGVs, aborts, exits nonzero, or truncates its frame
//     becomes *that job's* error outcome; every other job completes.  The
//     deserialized report is field-identical to the in-process one (doubles
//     cross the pipe as bit patterns), so CSVs stay byte-identical across
//     backends.  Requires a ReportCodec for the result type (RunReport
//     today); otherwise the runner warns and uses threads.
//     Parent-side hooks baked into a job's closure (tracer, metrics,
//     arrange hooks mutating captured state) take effect in the *child's*
//     copy of the address space: the report is the only thing shipped back.
//
// Work stealing: both backends dispatch through per-worker deques dealt in
// schedule order; an idle worker steals the front half of the fattest
// victim's backlog (`rt::MpmcQueue::try_pop_half`), so a skewed grid cannot
// strand workers behind a few long deques.  Steal batches are counted in
// the `sweep.steals` metric.  Stealing moves whole jobs before they start —
// outcome slots and per-job seeds never change, only which worker runs what.
//
// Scheduling (see docs/performance.md, "Memoization and cost-aware
// scheduling"):
//   * Jobs carrying a config `Fingerprint` are memoized: a `ResultCache`
//     (process-global by default) is consulted before dispatch, duplicate
//     cells within one batch execute once, and fresh results are published
//     back so later grids of the same process hit too.  Cached outcomes are
//     copies of deterministic runs, hence field-identical to executing.
//     The cache is in-process only; nothing is read from or written to disk.
//     `set_cache(nullptr)` is the one opt-out: every job executes,
//     duplicates included.
//   * Jobs are dispatched longest-first by their `cost` estimate, so one
//     expensive cell at the tail of a skewed grid no longer idles the rest
//     of the pool.  Outcome slots stay in job order; only the dispatch
//     order changes, and `schedule()` exposes it for tests.
//   * A `frieda_obs::MetricsRegistry` owned by the runner tracks progress
//     (sweep.jobs_completed / sweep.cache_hits / sweep.runs_executed /
//     sweep.cache_evictions counters, a sweep.in_flight gauge,
//     sweep.wall_per_job_s stats).
//   * Jobs tagged with a `Calibration` class feed their measured wall time
//     into a `CostCalibrator` (process-global by default), so later grids
//     of the same process dispatch on measured seconds instead of the
//     static unit estimate.
//
// Determinism rules:
//   * Each job owns its `sim::Simulation`/`cluster::VirtualCluster`/`Rng` —
//     thread-confined by construction; jobs share only immutable inputs
//     (e.g. a const workload model, see `workload::make_als_model`).
//   * Result slot `i` always belongs to job `i`; neither the pool nor the
//     longest-first schedule ever reorders outcomes.
//   * Per-job seeds, when derived, come from `derive_seed(base, job_index)`
//     (SplitMix64), so appending jobs to a grid never perturbs the seeds —
//     and therefore the results — of the jobs already in it.
//   * A throwing job is isolated: its outcome carries the error message, all
//     other jobs still run to completion.  Failed runs are never cached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "exp/calibrate.hpp"
#include "exp/process_pool.hpp"
#include "exp/result_cache.hpp"
#include "frieda/report.hpp"
#include "obs/metrics.hpp"

namespace frieda::exp {

/// Derive the seed of job `job_index` in a sweep with base seed `base_seed`.
/// Pure SplitMix64 mixing of the pair: depends only on (base, index), so a
/// job keeps its seed when other jobs are added before or after it.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// Execution substrate for sweep jobs (see the header comment).
enum class SweepBackend {
  kThread,   ///< pool threads in this address space
  kProcess,  ///< one forked child per job, outcome shipped over a pipe
};

/// Render a backend name ("thread" / "process").
const char* to_string(SweepBackend backend);

/// Pool configuration for one sweep.
struct SweepOptions {
  /// Worker threads; 0 = auto (the FRIEDA_SWEEP_THREADS environment
  /// variable if set and valid, else std::thread::hardware_concurrency()).
  /// The pool never spawns more threads than there are jobs to execute.
  /// Under the process backend this is the number of concurrent children
  /// (each managed by one parent thread).
  std::size_t threads = 0;

  /// Execution backend; nullopt = auto (the FRIEDA_SWEEP_BACKEND
  /// environment variable when it is exactly "thread" or "process" — a typo
  /// warns and falls back — else thread).
  std::optional<SweepBackend> backend;

  /// Opt-out for steal-half dispatch (benchmarks and tests only): when
  /// false each worker runs exactly its dealt share of the schedule and
  /// idles when it's done — the stranding behavior stealing eliminates.
  /// Results are identical either way; only the idle tail differs.
  bool steal = true;
};

namespace detail {

/// Values FRIEDA_SWEEP_THREADS will accept; anything above is treated as a
/// typo rather than a request for ten thousand threads.
constexpr long kMaxSweepThreads = 4096;

/// Parse a FRIEDA_SWEEP_THREADS value.  Returns the thread count, or 0 when
/// the text is not a plain integer in [1, kMaxSweepThreads] (garbage, empty,
/// zero, negative, trailing junk, or absurdly large) — the caller falls back
/// and logs.
std::size_t parse_threads_env(const char* text);

/// Parse a FRIEDA_SWEEP_BACKEND value.  Exact-match "thread" / "process"
/// only; anything else (including case or whitespace variants) is nullopt —
/// the caller warns and falls back to thread.
std::optional<SweepBackend> parse_backend_env(const char* text);

/// Resolve SweepOptions::backend against the environment and the result
/// type's codec availability.  A process request without a codec (or an
/// invalid FRIEDA_SWEEP_BACKEND) warns and resolves to thread.
SweepBackend resolve_backend(std::optional<SweepBackend> requested, bool codec_available);

/// Run `body(i)` for every i in `indices` on `threads` pool workers with
/// steal-half dispatch: positions are dealt round-robin in `indices` order
/// onto per-worker deques, and an idle worker steals the front half of the
/// fattest victim's backlog (disabled when `steal` is false — static
/// partition).  Returns one error string per *position in `indices`*
/// (empty = the call returned normally); a throwing body never takes down
/// the pool or other indices.  `steals_out`, when non-null, receives the
/// number of successful steal batches.
std::vector<std::string> run_stealing(const std::vector<std::size_t>& indices,
                                      std::size_t threads,
                                      const std::function<void(std::size_t)>& body,
                                      bool steal, std::uint64_t* steals_out);

/// Resolve SweepOptions::threads against the environment, the hardware and
/// the job count (always >= 1 for a non-empty batch).  Invalid
/// FRIEDA_SWEEP_THREADS values fall back to hardware_concurrency with a
/// warning log line instead of being silently swallowed.
std::size_t resolve_threads(std::size_t requested, std::size_t jobs);

/// Dispatch order for the given cost estimates: indices sorted by
/// descending cost, ties keeping submission order (stable).
std::vector<std::size_t> longest_first(const std::vector<double>& costs);

}  // namespace detail

/// One unit of sweep work: a tag (for reports and error messages), a
/// thread-confined callable producing the result, and the scheduling
/// annotations.  `{tag, fn}` still works: such a job has no fingerprint
/// (never memoized) and unit cost (FIFO dispatch among its peers).
template <typename R = core::RunReport>
struct Job {
  Job() = default;
  Job(std::string tag_, std::function<R()> fn_,
      std::optional<Fingerprint> fingerprint_ = std::nullopt, double cost_ = 1.0)
      : tag(std::move(tag_)), fn(std::move(fn_)), fingerprint(fingerprint_), cost(cost_) {}

  std::string tag;
  std::function<R()> fn;

  /// Memoization key; set only when the job is a pure function of a
  /// hashable configuration (see exp::scenario_fingerprint).
  std::optional<Fingerprint> fingerprint;

  /// Relative wall-time estimate for longest-first dispatch (any unit,
  /// only the ordering matters).
  double cost = 1.0;

  /// Measured-cost feedback class.  When set, the runner reports this
  /// job's wall time to its `CostCalibrator` as (key, raw_cost, seconds),
  /// so later grids of the same class schedule with measured rates (see
  /// exp/calibrate.hpp).  `raw_cost` is the *uncalibrated* estimate —
  /// `cost` may already be scaled by a previously learned rate.
  struct Calibration {
    std::string key;        ///< class label, e.g. "als/rt"
    double raw_cost = 1.0;  ///< static scenario_cost estimate
  };
  std::optional<Calibration> calibration;
};

/// Result slot of one job: the value, or the error that replaced it.
template <typename R = core::RunReport>
struct JobOutcome {
  std::string tag;
  std::optional<R> value;  ///< empty when the job threw
  std::string error;       ///< non-empty when the job threw
  bool from_cache = false; ///< served from the result cache or an in-batch twin

  bool ok() const { return value.has_value(); }

  /// The job's result; throws FriedaError naming the job when it failed.
  const R& get() const {
    FRIEDA_CHECK(value.has_value(), "sweep job '" << tag << "' failed: " << error);
    return *value;
  }
};

/// Thread-pooled batch executor.  `run()` blocks until every job finished
/// and returns outcomes in deterministic job order.
template <typename R = core::RunReport>
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

  /// Replace the consulted result cache (default: the process-global
  /// ResultCache<R>).  nullptr disables memoization for this runner,
  /// including in-batch duplicate elimination.
  void set_cache(ResultCache<R>* cache) { cache_ = cache; }

  /// Replace the measured-cost sink (default: the process-global
  /// CostCalibrator).  nullptr disables calibration feedback.
  void set_calibrator(CostCalibrator* calibrator) { calibrator_ = calibrator; }

  std::vector<JobOutcome<R>> run(std::vector<Job<R>> jobs) {
    const std::size_t n = jobs.size();
    std::vector<JobOutcome<R>> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i].tag = jobs[i].tag;
    runs_requested_ = n;
    cache_hits_ = 0;
    child_crashes_ = 0;
    steals_ = 0;
    schedule_.clear();
    backend_used_ = detail::resolve_backend(opt_.backend, ReportCodec<R>::kAvailable);

    // Phase 1 — memoization: serve cache hits, collapse in-batch duplicates
    // onto one primary, collect the jobs that must actually execute.
    std::vector<std::size_t> execute;
    std::vector<std::optional<std::size_t>> twin_of(n);  // job -> earlier identical job
    std::map<Fingerprint, std::size_t> primary;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& fp = jobs[i].fingerprint;
      if (cache_ != nullptr && fp.has_value()) {
        if (auto hit = cache_->lookup(*fp)) {
          out[i].value.emplace(std::move(*hit));
          out[i].from_cache = true;
          ++cache_hits_;
          continue;
        }
        const auto [it, fresh] = primary.try_emplace(*fp, i);
        if (!fresh) {
          twin_of[i] = it->second;
          ++cache_hits_;
          continue;
        }
      }
      execute.push_back(i);
    }

    // Phase 2 — cost-aware dispatch: longest estimated job first, so a
    // skewed grid's long pole starts immediately instead of tailing the
    // FIFO.  Outcome slots are untouched; only the dispatch order changes.
    {
      std::vector<double> costs;
      costs.reserve(execute.size());
      for (const std::size_t i : execute) costs.push_back(jobs[i].cost);
      const auto order = detail::longest_first(costs);
      schedule_.reserve(order.size());
      for (const std::size_t p : order) schedule_.push_back(execute[p]);
    }
    threads_used_ = detail::resolve_threads(opt_.threads, schedule_.size());

    auto& completed = metrics_.counter("sweep.jobs_completed");
    auto& hits_ctr = metrics_.counter("sweep.cache_hits");
    auto& executed_ctr = metrics_.counter("sweep.runs_executed");
    auto& evicted_ctr = metrics_.counter("sweep.cache_evictions");
    auto& crashes_ctr = metrics_.counter("sweep.child_crashes");
    auto& steals_ctr = metrics_.counter("sweep.steals");
    auto& in_flight = metrics_.gauge("sweep.in_flight");
    auto& wall_per_job = metrics_.stats("sweep.wall_per_job_s");

    const std::uint64_t evictions_before = cache_ != nullptr ? cache_->evictions() : 0;
    std::vector<double> job_wall(n, 0.0);  // per-job wall seconds; each job owns its slot

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> crash_count{0};
    const std::function<void(std::size_t)> body = [&](std::size_t i) {
      const auto j0 = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        in_flight.set(in_flight.value() + 1);
      }
      // Instruments are single-writer by contract; pool threads share these,
      // so every update goes through metrics_mutex_ — including the
      // completion bookkeeping, which must also run when fn() throws.
      struct Done {
        SweepRunner* self;
        obs::Gauge& in_flight;
        obs::Counter& completed;
        RunningStats& wall;
        std::chrono::steady_clock::time_point start;
        double* wall_slot;
        ~Done() {
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
          *wall_slot = secs;
          std::lock_guard<std::mutex> lock(self->metrics_mutex_);
          in_flight.set(in_flight.value() - 1);
          completed.inc();
          wall.add(secs);
        }
      } done{this, in_flight, completed, wall_per_job, j0, &job_wall[i]};
      if constexpr (ReportCodec<R>::kAvailable) {
        if (backend_used_ == SweepBackend::kProcess) {
          // Fork: the child runs fn() in its copy of the address space and
          // ships the serialized report back.  Any way the child can die
          // becomes this job's error outcome (counted as a crash); an 'E'
          // frame is the job's own exception, rethrown with the same what()
          // the thread backend would have recorded.
          const auto& fn = jobs[i].fn;
          const ForkOutcome fo =
              run_in_child([&fn] { return ReportCodec<R>::serialize(fn()); });
          if (!fo.delivered) {
            crash_count.fetch_add(1, std::memory_order_relaxed);
            throw FriedaError(fo.crash);
          }
          if (!fo.ok) throw std::runtime_error(fo.payload);
          try {
            out[i].value.emplace(ReportCodec<R>::deserialize(fo.payload));
          } catch (...) {
            // A frame that parses as neither report nor error is as good as
            // a crash: count it, surface the decode failure as the outcome.
            crash_count.fetch_add(1, std::memory_order_relaxed);
            throw;
          }
          return;
        }
      }
      out[i].value.emplace(jobs[i].fn());
    };
    auto errors =
        detail::run_stealing(schedule_, threads_used_, body, opt_.steal, &steals_);
    child_crashes_ = crash_count.load();
    wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (std::size_t p = 0; p < schedule_.size(); ++p) {
      out[schedule_[p]].error = std::move(errors[p]);
    }

    // Phase 3 — publish: successful fingerprinted runs enter the cache
    // (errors never do), and in-batch twins copy their primary's outcome.
    if (cache_ != nullptr) {
      for (const std::size_t i : execute) {
        if (jobs[i].fingerprint.has_value() && out[i].value.has_value()) {
          cache_->insert(*jobs[i].fingerprint, *out[i].value);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!twin_of[i].has_value()) continue;
      const auto& prime = out[*twin_of[i]];
      out[i].value = prime.value;
      out[i].error = prime.error;
      out[i].from_cache = true;
    }
    runs_executed_ = execute.size();

    // Feed measured wall times back into the calibrator — successful,
    // tagged runs only (a failed run's duration carries no signal; cache
    // hits never executed).
    if (calibrator_ != nullptr) {
      for (const std::size_t i : execute) {
        if (jobs[i].calibration.has_value() && out[i].value.has_value()) {
          calibrator_->observe(jobs[i].calibration->key, jobs[i].calibration->raw_cost,
                               job_wall[i]);
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      hits_ctr.inc(cache_hits_);
      executed_ctr.inc(runs_executed_);
      crashes_ctr.inc(child_crashes_);
      steals_ctr.inc(steals_);
      if (cache_ != nullptr) evicted_ctr.inc(cache_->evictions() - evictions_before);
    }
    return out;
  }

  /// Threads the last run() actually used (0 before the first run, and 0
  /// when every job was served from the cache).
  std::size_t threads_used() const { return threads_used_; }

  /// Wall-clock duration of the last run() in seconds.
  double wall_seconds() const { return wall_seconds_; }

  /// Jobs handed to the last run().
  std::size_t runs_requested() const { return runs_requested_; }

  /// Jobs the last run() actually executed (requested − cache_hits for
  /// fully fingerprinted batches; unhashable jobs always execute).
  std::size_t runs_executed() const { return runs_executed_; }

  /// Jobs of the last run() served without executing: result-cache hits
  /// plus in-batch duplicates collapsed onto an executing twin.
  std::size_t cache_hits() const { return cache_hits_; }

  /// Backend the last run() resolved to (after the environment override and
  /// the codec-availability fallback).  kThread before the first run.
  SweepBackend backend_used() const { return backend_used_; }

  /// Forked children of the last run() that died without delivering a
  /// result (fatal signal, nonzero exit, truncated or undecodable frame).
  /// Always 0 under the thread backend.
  std::uint64_t child_crashes() const { return child_crashes_; }

  /// Steal batches of the last run(): times an idle worker took the front
  /// half of another worker's backlog.  0 with opt.steal == false, with a
  /// single worker, and for perfectly balanced dispatch.
  std::uint64_t steals() const { return steals_; }

  /// Dispatch order of the last run(): the executed jobs' ids, longest
  /// estimated cost first (ties in submission order).  Exposed so tests can
  /// assert the schedule decision without timing assumptions.
  const std::vector<std::size_t>& schedule() const { return schedule_; }

  /// Progress metrics owned by this runner; counters accumulate across
  /// run() calls.  Safe to read between runs; during a run, updates are
  /// serialized behind an internal mutex.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  SweepOptions opt_;
  ResultCache<R>* cache_ = &ResultCache<R>::global();
  CostCalibrator* calibrator_ = &CostCalibrator::global();
  std::size_t threads_used_ = 0;
  double wall_seconds_ = 0.0;
  std::size_t runs_requested_ = 0;
  std::size_t runs_executed_ = 0;
  std::size_t cache_hits_ = 0;
  SweepBackend backend_used_ = SweepBackend::kThread;
  std::uint64_t child_crashes_ = 0;
  std::uint64_t steals_ = 0;
  std::vector<std::size_t> schedule_;
  obs::MetricsRegistry metrics_;
  std::mutex metrics_mutex_;
};

}  // namespace frieda::exp
