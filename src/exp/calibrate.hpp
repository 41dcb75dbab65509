// Measured-cost calibration for the sweep scheduler.
//
// `scenario_cost` is a static estimate (units / slots, arbitrary unit).
// The runner measures actual wall time per job, so we can learn the
// seconds-per-cost-unit *rate* of each (app, strategy) class and scale the
// static estimate by it on subsequent grids — closing the ROADMAP
// "calibrate cost estimates from observed wall time" item.  Rates are
// tracked per class because the unit model is honest *within* a class (2x
// the units of the same app+strategy ≈ 2x the time) but the constant
// differs *across* classes (a real-time BLAST unit costs different wall
// time than a simulated ALS one).
//
// The learned rate is an exponential moving average, so drifting machines
// (thermal throttling, noisy CI neighbors) re-converge instead of being
// anchored to the first observation forever.
//
// Calibration only reorders dispatch — results, tables, and CSVs are
// byte-identical regardless (the runner's outcome slots are order-
// independent by design), so learning across grids is safe by default.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace frieda::exp {

/// Per-class EWMA of measured seconds per raw cost unit.  Thread-safe.
class CostCalibrator {
 public:
  /// EWMA weight of a new observation; the first observation seeds the rate.
  static constexpr double kAlpha = 0.25;

  /// Record that a job of class `key` with static estimate `raw_cost` took
  /// `wall_seconds`.  Non-positive inputs are ignored (a cache hit or a
  /// failed run carries no signal).
  void observe(const std::string& key, double raw_cost, double wall_seconds);

  /// Learned seconds-per-raw-unit rate, or nullopt before any observation.
  std::optional<double> rate(const std::string& key) const;

  /// Scale `raw_cost` by the learned rate: calibrated seconds estimate for
  /// observed classes, the raw estimate unchanged for unseen ones.  (Mixing
  /// the two only matters for cross-class ordering, where the raw unit was
  /// already heuristic.)
  double calibrated(const std::string& key, double raw_cost) const;

  /// Number of classes with a learned rate.
  std::size_t classes() const;

  /// Drop all learned rates (test isolation).
  void clear();

  /// The process-wide calibrator: `Grid` consults it when building jobs and
  /// `SweepRunner` feeds it measured wall times, so grid N+1 schedules with
  /// what grid N measured.  Rates live for the process only.
  static CostCalibrator& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> rate_;  ///< key -> seconds per raw unit
};

}  // namespace frieda::exp
