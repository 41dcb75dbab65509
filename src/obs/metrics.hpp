// Named metrics registry: counters, gauges, and the existing RunningStats /
// Histogram accumulators as registered instruments.
//
// Usage pattern (see docs/observability.md): a component is handed a
// `MetricsRegistry*` (nullptr = disabled) and resolves the instruments it
// needs ONCE at attach time, caching the returned pointers/references.  The
// hot path then performs a plain pointer-guarded increment — no name lookup,
// no hashing, no allocation.
//
// Threading model (see docs/observability.md): the registry *map* is
// synchronized — create-or-get, find_* and the exports may be called from
// concurrent sweep jobs (exp::SweepRunner) sharing one registry.  The
// *instruments* are not: each returned Counter/Gauge/RunningStats/Histogram
// must be updated by a single run (thread) at a time, which holds by
// construction when jobs resolve distinct per-job instrument names.  A
// `Tracer` is internally synchronized but is a per-run object: attach one
// tracer to one run; merge exports after the runs, don't share one tracer
// across simulations whose clocks are unrelated.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.hpp"

namespace frieda::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Create-or-get instrument registry keyed by name.  Returned references are
/// stable for the registry's lifetime (instruments are heap-allocated).
class MetricsRegistry {
 public:
  /// Create-or-get; a name maps to exactly one instrument kind (creating the
  /// same name as a different kind throws FriedaError).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  RunningStats& stats(const std::string& name);
  /// Histogram parameters are fixed at first creation; later calls with the
  /// same name return the existing instrument and ignore the parameters.
  Histogram& histogram(const std::string& name, double lo, double hi, std::size_t bins);

  /// Lookup without creating (nullptr when absent or of another kind).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const RunningStats* find_stats(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Number of registered instruments.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.size();
  }

  /// Flat CSV export, one row per scalar:
  /// name,kind,value — stats expand to name.count/.mean/.min/.max/.sum rows,
  /// histograms to one name.bucket_<i> row per bucket plus name.total.
  std::string csv() const;

  /// Human-readable "name = value" listing (sorted by name).
  std::string summary() const;

  /// Write csv() to a file (throws FriedaError on failure).
  void write_csv(const std::string& path) const;

 private:
  struct Instrument {
    // Exactly one of these is set; a tagged union kept simple with uniques.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<RunningStats> stats;
    std::unique_ptr<Histogram> histogram;
  };
  /// Create-or-get the `slot` instrument of `name`, made from `args`.
  template <typename T, typename... Args>
  T& get_or_create(const std::string& name, std::unique_ptr<T> Instrument::*slot, Args... args);
  mutable std::mutex mutex_;                       // guards the map, not the instruments
  std::map<std::string, Instrument> instruments_;  // ordered for stable export
};

}  // namespace frieda::obs
