// RunTap: the one seam through which a run reports its lifecycle to the
// observers attached to it — a Tracer, which records the events of
// vocab.hpp, and a TelemetryProbe, which takes latency observations and
// periodic gauge samples.  core::FriedaRun (simulation clock) and
// rt::RtEngine (wall clock) each own one and call it at every lifecycle
// point; neither builds an event itself.
//
// Cost rule: every call first tests its sink pointer, inline.  A detached
// tap (no tracer, no probe) therefore formats no value, builds no event and
// allocates nothing.  Values arrive as numbers and strings and are formatted
// only past that test: numbers with std::to_string, flags as "1"/"0", and the
// SLO totals with format_sample.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/vocab.hpp"

namespace frieda::obs {

class RunTap {
 public:
  /// The args of one event, each formatted as it is added.
  struct Args {
    template <typename V>
    Args& add(const char* key, const V& value) {
      list.push_back({key, format(value)});
      return *this;
    }
    static std::string format(const std::string& s) { return s; }
    static std::string format(const char* s) { return s; }
    static std::string format(bool flag) { return flag ? "1" : "0"; }
    template <typename N>
    static std::string format(N n) {
      static_assert(std::is_arithmetic_v<N>, "trace values are strings or numbers");
      return std::to_string(n);
    }
    std::vector<TraceArg> list;
  };

  RunTap(Tracer* tracer, TelemetryProbe* probe) : tracer_(tracer), probe_(probe) {}

  Tracer* tracer() const { return tracer_; }
  /// When a probe is attached, call `start(interval)`: the engine starts a
  /// sampler there that calls tick() every `interval` seconds.
  template <typename Start>
  void start_sampler(Start&& start) {
    if (probe_ != nullptr) start(probe_->interval());
  }

  // ---- unit lifecycle: one lane per unit on kUnitTrack ----
  /// All `units` units are born, and pending, at `t`.
  void units_born(std::size_t units, double t) {
    if (!attached()) return;
    born_.assign(units, t);
    pending_ = born_;
  }
  /// `unit` is born, and pending, at `t` (an arrival, or an RtEngine dispatch).
  void born(std::size_t unit, double t) {
    if (attached()) born_[unit] = pending_[unit] = t;
  }
  /// `unit` (re)entered a dispatch queue at `t`.
  void pending(std::size_t unit, double t) {
    if (attached()) pending_[unit] = t;
  }
  /// `unit` left its queue for `worker` on `vm` at `t`: its pending span.
  void dispatched(std::size_t unit, double t, int attempt, std::uint64_t worker,
                  std::uint64_t vm) {
    if (tracer_ == nullptr) return;
    span(cat::kPending, kUnitTrack, unit, event::kPendingUnit, unit, pending_[unit], t,
         key::kAttempt, attempt, key::kWorker, worker, key::kVm, vm);
  }
  /// `unit` reached `status` at `end` after `attempts` dispatches: its
  /// lifecycle span from birth, naming its last worker and VM if it had one.
  void terminal(std::size_t unit, double end, const char* status, int attempts,
                std::uint64_t worker, std::uint64_t vm) {
    if (tracer_ == nullptr) return;
    if (attempts == 0) {
      span(cat::kUnit, kUnitTrack, unit, event::kUnit, unit, born_[unit], end, key::kStatus,
           status, key::kAttempts, attempts);
      return;
    }
    span(cat::kUnit, kUnitTrack, unit, event::kUnit, unit, born_[unit], end, key::kStatus,
         status, key::kAttempts, attempts, key::kWorker, worker, key::kVm, vm);
  }
  /// `unit` finished on `worker` at `end` with outcome `ok` (RtEngine).
  void terminal(std::size_t unit, double end, std::uint64_t worker, bool ok) {
    if (tracer_ == nullptr) return;
    span(cat::kUnit, kUnitTrack, unit, event::kUnit, unit, born_[unit], end, key::kWorker, worker,
         key::kOk, ok);
  }
  /// The probe observes `unit`'s sojourn, from birth to `t`.
  void latency(std::size_t unit, double t) {
    if (probe_ != nullptr) probe_->observe_latency(t, t - born_[unit]);
  }

  // ---- staging and exec spans ----
  /// One input `file` of `unit` staged onto `worker`'s node.
  void stage_input(std::uint64_t worker, std::size_t unit, const std::string& file,
                   double start, double end, std::uint64_t bytes, bool ok) {
    span(cat::kStaging, kWorkerTrack, worker, event::kStage, file, start, end, key::kUnit, unit,
         key::kFile, file, key::kBytes, bytes, key::kOk, ok);
  }
  /// One input `file` of `unit` streamed to `worker` at execution time.
  void remote_read(std::uint64_t worker, std::size_t unit, const std::string& file,
                   double start, double end, std::uint64_t bytes, bool ok) {
    span(cat::kStaging, kWorkerTrack, worker, event::kRemoteRead, file, start, end, key::kUnit,
         unit, key::kFile, file, key::kBytes, bytes, key::kOk, ok);
  }
  /// One `file` staged onto `vm` before the farm starts.
  void stage_node(std::uint64_t vm, const std::string& file, double start, double end,
                  std::uint64_t bytes, bool ok) {
    span(cat::kStaging, kRunTrack, vm, event::kStageNode, file, start, end, key::kVm, vm,
         key::kFile, file, key::kBytes, bytes, key::kOk, ok);
  }
  /// The application's common data staged onto `vm`.
  void stage_common(std::uint64_t vm, double start, double end, std::uint64_t bytes) {
    if (tracer_ == nullptr) return;
    tracer_->span({.name = event::kStageCommon, .cat = cat::kStaging, .process = kRunTrack,
                   .track = static_cast<std::uint32_t>(vm), .start = start, .end = end,
                   .args = args(key::kVm, vm, key::kBytes, bytes)});
  }
  /// All inputs of `unit` staged by `worker` itself (RtEngine).
  void stage_unit(std::uint64_t worker, std::size_t unit, double start, double end) {
    span(cat::kStaging, kWorkerTrack, worker, event::kStageUnit, unit, start, end, key::kUnit,
         unit);
  }
  /// `unit` ran on `worker` (on `vm`); not `completed` when the VM failed.
  void exec(std::uint64_t worker, std::size_t unit, double start, double end, std::uint64_t vm,
            bool completed) {
    span(cat::kExec, kWorkerTrack, worker, event::kExecUnit, unit, start, end, key::kUnit, unit,
         key::kVm, vm, key::kCompleted, completed);
  }
  /// `unit` ran on `worker` with outcome `ok` (RtEngine).
  void exec(std::uint64_t worker, std::size_t unit, double start, double end, bool ok) {
    span(cat::kExec, kWorkerTrack, worker, event::kExecUnit, unit, start, end, key::kUnit, unit,
         key::kOk, ok);
  }

  // ---- instants on the run track, named and keyed from vocab.hpp ----
  template <typename... KV>
  void protocol(double t, const char* name, const KV&... kv) {
    instant(t, cat::kProtocol, name, kv...);
  }
  template <typename... KV>
  void control(double t, const char* name, const KV&... kv) {
    instant(t, cat::kControl, name, kv...);
  }
  template <typename... KV>
  void service(double t, const char* name, const KV&... kv) {
    instant(t, cat::kService, name, kv...);
  }

  // ---- the run anchor and the probe ----
  /// The run anchor span [start, end) that TraceAnalyzer windows the run by.
  /// `fill(Args&)` adds the engine's summary args and runs only when a
  /// tracer is attached; the probe's SLO totals follow them.
  template <typename Fill>
  void run(double start, double end, Fill&& fill) {
    if (tracer_ == nullptr) return;
    Args a;
    fill(a);
    run_span(start, end, std::move(a.list));
  }
  /// Start the probe's sampling epoch at `t0`.
  void begin(double t0) {
    if (probe_ != nullptr) probe_->begin(t0, tracer_);
  }
  /// Sample the probe at `t`; `gauges()` returns the TelemetryTick.
  template <typename Gauges>
  void tick(double t, Gauges&& gauges) {
    if (probe_ != nullptr) probe_->tick(t, gauges());
  }
  /// The final sample at `end`, then the probe's SLO evaluation.
  template <typename Gauges>
  void finish(double end, Gauges&& gauges) {
    if (probe_ == nullptr) return;
    probe_->tick(end, gauges());
    probe_->finish(end);
  }

 private:
  bool attached() const { return tracer_ != nullptr || probe_ != nullptr; }

  template <typename... KV>
  static std::vector<TraceArg> args(const KV&... kv) {
    Args a;
    add_pairs(a, kv...);
    return std::move(a.list);
  }
  static void add_pairs(Args&) {}
  template <typename V, typename... Rest>
  static void add_pairs(Args& a, const char* key, const V& value, const Rest&... rest) {
    add_pairs(a.add(key, value), rest...);
  }

  /// A span on (`process`, `track`) named "<name> <subject>".
  template <typename S, typename... KV>
  void span(const char* cat, std::uint32_t process, std::uint64_t track, const char* name,
            const S& subject, double start, double end, const KV&... kv) {
    if (tracer_ == nullptr) return;
    tracer_->span({.name = std::string(name) + ' ' + Args::format(subject), .cat = cat,
                   .process = process, .track = static_cast<std::uint32_t>(track),
                   .start = start, .end = end, .args = args(kv...)});
  }
  template <typename... KV>
  void instant(double t, const char* cat, const char* name, const KV&... kv) {
    if (tracer_ == nullptr) return;
    tracer_->instant({.name = name, .cat = cat, .process = kRunTrack, .start = t, .end = t,
                      .args = args(kv...)});
  }

  void run_span(double start, double end, std::vector<TraceArg> args) {
    if (probe_ != nullptr && !probe_->options().slo.empty()) {
      // SLO totals, so frieda-trace can headline time-in-violation without
      // re-deriving it from the breach spans.
      const auto& slo = probe_->slo();
      args.push_back({key::kSloBreaches, std::to_string(slo.total_breaches())});
      args.push_back({key::kSloViolationS, format_sample(slo.total_violation_s())});
    }
    tracer_->span({.name = event::kRun, .cat = cat::kRun, .process = kRunTrack, .start = start,
                   .end = end, .args = std::move(args)});
  }

  Tracer* tracer_ = nullptr;
  TelemetryProbe* probe_ = nullptr;
  std::vector<double> born_;     ///< per unit: when it entered the run
  std::vector<double> pending_;  ///< per unit: when it last entered a queue
};

}  // namespace frieda::obs
