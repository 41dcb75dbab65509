// Structured run tracing: per-work-unit lifecycle spans, per-flow network
// spans, and controller/master protocol events, exportable as Chrome
// trace-event JSON (chrome://tracing, Perfetto) or a flat CSV.
//
// Design rules (see docs/observability.md):
//   * Opt-in.  A run reports to its tracer through an obs::RunTap
//     (run_tap.hpp), whose inline pointer test makes a detached tracer cost
//     one predictable branch and no string formatting on the hot path.
//   * Timestamps are plain doubles in seconds: simulation time for FriedaRun
//     traces, wall time since run start for RtEngine traces.  The exporters
//     convert to microseconds (the trace-event unit).
//   * Thread-safe: the threaded runtime records from worker threads.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace frieda::obs {

/// Well-known process ids ("pid" in the trace-event format) used to group
/// tracks.  Within a process, spans on the same track (tid) nest visually.
enum TrackGroup : std::uint32_t {
  kRunTrack = 1,      ///< controller/master protocol events and run phases
  kWorkerTrack = 2,   ///< per-worker staging/execution spans (tid = worker id)
  kUnitTrack = 3,     ///< per-unit lifecycle spans (tid = unit id)
  kNetworkTrack = 4,  ///< per-transfer flow spans (tid = destination node)
  kTelemetryTrack = 5,  ///< sampled telemetry counters (tid = 0)
};

/// One key/value annotation on an event ("args" in the trace-event format).
struct TraceArg {
  std::string key;
  std::string value;
};

/// One recorded event: a [start, end) span, an instant when end == start, or
/// a sampled counter (args hold numeric channel values at time `start`).
struct TraceEvent {
  enum class Kind { kSpan, kInstant, kCounter };
  Kind kind = Kind::kSpan;
  std::string name;
  std::string cat;                    ///< category (vocab.hpp, or "flow")
  std::uint32_t process = kRunTrack;  ///< track group (see TrackGroup)
  std::uint32_t track = 0;            ///< lane within the group
  double start = 0.0;                 ///< seconds
  double end = 0.0;                   ///< seconds; == start for instants
  std::vector<TraceArg> args;
};

/// Append-only event recorder with Chrome trace-event and CSV exporters.
///
/// Memory is bounded: once `max_events()` events are recorded, further
/// events are counted in `dropped_events()` instead of stored, and the
/// exporters append a "trace-truncated" marker so a clipped trace is never
/// mistaken for a complete one.
class Tracer {
 public:
  /// Default event cap (~1M events; a traced fig6a run is ~10k).
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  /// Record a completed [start, end) span.
  void span(TraceEvent ev);

  /// Record an instantaneous event at `ev.start` (`end` is ignored).
  void instant(TraceEvent ev);

  /// Record a counter sample at `ev.start`.  Each arg is one channel whose
  /// value must format as a JSON number ("%.17g"); the Chrome exporter emits
  /// a "C" event so viewers render the args as stacked counter tracks.
  void counter(TraceEvent ev);

  /// Cap the number of stored events (0 = unbounded).  Lowering the cap
  /// does not discard already-recorded events; it only stops new ones.
  void set_max_events(std::size_t cap);
  std::size_t max_events() const;

  /// Events discarded because the cap was reached.
  std::uint64_t dropped_events() const;

  /// Snapshot of every recorded event, in insertion order.
  std::vector<TraceEvent> events() const;

  /// Total number of recorded events (spans + instants).
  std::size_t event_count() const;

  /// Number of recorded span events with category `cat`.
  std::size_t span_count(const std::string& cat) const;

  /// Serialize as Chrome trace-event JSON ("traceEvents" array of complete
  /// "X" spans and "i" instants, microsecond timestamps, plus process-name
  /// metadata), loadable in chrome://tracing and Perfetto.
  std::string chrome_json() const;

  /// Serialize as a flat CSV, one row per recorded event:
  /// kind,name,cat,process,track,start_s,end_s,dur_s,args ("k=v;k=v").
  std::string csv() const;

  /// Write chrome_json() / csv() to a file (throws FriedaError on failure).
  void write_chrome_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

 private:
  /// Store `ev` as a `kind` event, or count it as dropped once the cap is
  /// reached.
  void append(TraceEvent ev, TraceEvent::Kind kind);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
};

/// Replace the file at `path` with `text`; throws FriedaError naming the
/// `what` file ("trace", "metrics", ...) when it cannot be written.
void write_text_file(const std::string& path, const std::string& text, const char* what);

}  // namespace frieda::obs
