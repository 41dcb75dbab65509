// Live run telemetry: windowed time-series probes sampled on an interval
// while a run is in flight, plus SLO targets evaluated over the recorded
// series.  Complements the post-hoc TraceAnalyzer: a TelemetryProbe is the
// measurement substrate for monitoring-driven control (rolling p99, queue
// depth) rather than an after-the-fact report.
//
// Design rules (see docs/observability.md):
//   * Opt-in: a run drives its probe through an obs::RunTap (run_tap.hpp),
//     so a detached probe costs one predictable branch.
//   * Timestamps are plain doubles in seconds: simulation time when driven
//     by core::FriedaRun, wall time since run start for rt::RtEngine.
//   * Thread-safe: the threaded runtime samples from a dedicated thread
//     while the master thread records latencies.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace frieda::obs {

class Tracer;

/// Shortest round-trip decimal form of a double (std::to_chars), used for
/// every numeric value that crosses a text boundary (timeline CSV, counter
/// event args) so exported values re-parse to the identical bits.
std::string format_sample(double v);

/// Columnar timestamped samples per named channel.  Channels keep insertion
/// order; samples within a channel keep recording order (ascending time for
/// probe-driven series), so the CSV export is deterministic.
class Timeseries {
 public:
  struct Channel {
    std::string name;
    std::vector<double> t;  ///< sample times, seconds
    std::vector<double> v;  ///< sample values
  };

  /// Append one sample, creating the channel on first use.
  void add(const std::string& channel, double t, double v);

  /// Channel by name, or nullptr when never sampled.
  const Channel* find(const std::string& name) const;

  const std::vector<Channel>& channels() const { return channels_; }
  std::size_t sample_count() const;
  bool empty() const { return channels_.empty(); }

  /// Long-format CSV: "channel,t_s,value", one row per sample, channels in
  /// insertion order.  Long format because channels are sampled at
  /// different instants (latency percentiles skip empty-window ticks).
  std::string csv() const;
  void write_csv(const std::string& path) const;

 private:
  std::vector<Channel> channels_;
};

/// Ring buffer of the last W sojourns and/or last T seconds of latency
/// observations.  Percentiles over the window use the exact SampleSet
/// interpolation (numpy linear, rank = p/100*(n-1)) so a window covering
/// the whole run reproduces `RunReport.latency_p` bit for bit.
class LatencyWindow {
 public:
  /// max_count = 0 disables the count bound; max_age = 0 the age bound.
  explicit LatencyWindow(std::size_t max_count = 0, double max_age = 0.0);

  /// Record one observation at time `t` (non-decreasing across calls).
  void add(double t, double v);

  /// Drop samples with t < now - max_age (no-op when max_age == 0).
  void evict(double now);

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }

  /// Percentile over the current window; throws FriedaError when empty.
  double percentile(double p) const;

  /// Window contents in arrival order (for reference-checking tests).
  std::vector<double> values() const;

 private:
  std::size_t max_count_;
  double max_age_;
  std::deque<std::pair<double, double>> buf_;  ///< (t, value)
};

/// One service-level objective: breach whenever `channel` samples exceed
/// `limit` (e.g. {"latency_p99", 2.0} or {"queue_depth", 16}).
struct SloTarget {
  std::string channel;
  double limit = 0.0;
};

/// One contiguous breach interval [start, end) of a target.
struct SloBreach {
  std::string channel;
  double limit = 0.0;
  double start = 0.0;
  double end = 0.0;
  double peak = 0.0;  ///< worst sample inside the interval

  double duration() const { return end - start; }
};

/// Post-run evaluation of a set of SloTargets over a Timeseries.
struct SloReport {
  struct Target {
    SloTarget target;
    std::size_t breaches = 0;
    double violation_s = 0.0;  ///< total time in violation
  };

  std::vector<Target> targets;
  std::vector<SloBreach> breaches;  ///< all intervals, chronological per target

  std::size_t total_breaches() const { return breaches.size(); }
  double total_violation_s() const;
  std::string summary() const;
};

/// Evaluates declared targets against a recorded Timeseries with
/// sample-and-hold semantics: the value at t_i holds until the next sample
/// of the same channel (or `end_time` for the last one).
class SloMonitor {
 public:
  explicit SloMonitor(std::vector<SloTarget> targets) : targets_(std::move(targets)) {}

  const std::vector<SloTarget>& targets() const { return targets_; }
  SloReport evaluate(const Timeseries& series, double end_time) const;

 private:
  std::vector<SloTarget> targets_;
};

/// Raw cumulative gauges a backend hands the probe on every tick; the probe
/// derives the per-interval deltas (throughput, solver activity) itself.
struct TelemetryTick {
  double queue_depth = 0.0;     ///< units waiting for dispatch
  double in_flight = 0.0;       ///< dispatched, not yet terminal
  double active_workers = 0.0;  ///< live worker processes
  double active_vms = 0.0;      ///< running VMs hosting workers
  double completed = 0.0;       ///< cumulative completed units
  double net_solves = 0.0;      ///< cumulative network-solver invocations
  double scale_outs = 0.0;      ///< cumulative elastic scale-out events
  double scale_ins = 0.0;       ///< cumulative elastic scale-in events
};

struct TelemetryOptions {
  double interval = 1.0;           ///< seconds between samples
  std::size_t window_count = 128;  ///< last W sojourns (0 = no count bound)
  double window_seconds = 0.0;     ///< last T seconds (0 = no age bound)
  std::vector<SloTarget> slo;      ///< targets evaluated at finish()
};

/// In-flight sampler both backends drive on a configurable interval.
/// Records every channel into a Timeseries and, when a Tracer is attached,
/// mirrors each sample as a Chrome-trace counter event on kTelemetryTrack
/// so counters interleave with the existing spans.
///
/// Channels: queue_depth, in_flight, active_workers, active_vms, completed,
/// throughput, net_solves (per-tick delta), scale_outs, scale_ins,
/// latency_p50/latency_p95/latency_p99 (windowed; skipped while the window
/// is empty).
class TelemetryProbe {
 public:
  explicit TelemetryProbe(TelemetryOptions opt = {});

  double interval() const { return opt_.interval; }
  const TelemetryOptions& options() const { return opt_; }

  /// Reset state and start a sampling epoch at `t0`.  `tracer` may be null
  /// (series-only mode); the probe never formats counter args without one.
  void begin(double t0, Tracer* tracer);

  /// Record one sojourn latency observed at time `now` (seconds).
  void observe_latency(double now, double sojourn);

  /// Sample every channel at `now` from the backend-supplied raw gauges.
  void tick(double now, const TelemetryTick& raw);

  /// Evaluate SLO targets over [t0, end_time], emit one "slo" span per
  /// breach interval into the attached tracer, and freeze the report.
  void finish(double end_time);

  const Timeseries& series() const { return series_; }
  const SloReport& slo() const { return slo_report_; }
  bool finished() const { return finished_; }
  std::size_t tick_count() const { return ticks_; }

  /// Timeline CSV (series().csv()) — schema "channel,t_s,value".
  std::string timeline_csv() const { return series_.csv(); }
  void write_timeline_csv(const std::string& path) const { series_.write_csv(path); }

 private:
  void record(const std::string& channel, double t, double v);

  TelemetryOptions opt_;
  mutable std::mutex mutex_;
  Tracer* tracer_ = nullptr;
  Timeseries series_;
  LatencyWindow window_;
  SloReport slo_report_;
  double t0_ = 0.0;
  double last_tick_ = 0.0;
  double last_completed_ = 0.0;
  double last_net_solves_ = 0.0;
  std::size_t ticks_ = 0;
  bool begun_ = false;
  bool finished_ = false;
};

}  // namespace frieda::obs
