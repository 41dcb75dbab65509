#include "obs/analysis.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/vocab.hpp"

namespace frieda::obs {

namespace {

/// Timestamp slop for "ends at/before" comparisons: covers the microsecond
/// rounding of the Chrome JSON round-trip plus float accumulation.
constexpr double kEps = 2e-6;

const TraceArg* find_arg(const TraceEvent& ev, const char* key) {
  for (const auto& a : ev.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

/// Parse arg `key` of `ev` into `out` (an unsigned count or a double);
/// false, leaving `out` alone, when the event has no such arg.
template <typename T>
bool read_arg(const TraceEvent& ev, const char* key, T& out) {
  const auto* a = find_arg(ev, key);
  if (a == nullptr) return false;
  if constexpr (std::is_floating_point_v<T>) {
    out = std::strtod(a->value.c_str(), nullptr);
  } else {
    out = std::strtoull(a->value.c_str(), nullptr, 10);
  }
  return true;
}

/// Arg `key` of `ev` as a non-negative id (a unit or a VM), -1 when absent
/// or not a plain decimal.
int id_arg(const TraceEvent& ev, const char* key) {
  const auto* a = find_arg(ev, key);
  if (a == nullptr || a->value.empty()) return -1;
  char* end = nullptr;
  const long v = std::strtol(a->value.c_str(), &end, 10);
  return (end != nullptr && *end == '\0' && v >= 0) ? static_cast<int>(v) : -1;
}

/// Attribution bucket of a busy span (never kIdle; idle is the remainder).
TimeCategory busy_category(const TraceEvent& ev) {
  if (ev.cat == cat::kExec) return TimeCategory::kCompute;
  return ev.name.starts_with(event::kRemoteRead) ? TimeCategory::kTransfer
                                                 : TimeCategory::kStaging;
}

/// Priority for overlap resolution: lower wins.  compute > transfer >
/// staging (real-time prefetch pipelines staging under execution; the
/// occupied worker is computing, not idle-staging).
int priority(TimeCategory c) {
  switch (c) {
    case TimeCategory::kCompute: return 0;
    case TimeCategory::kTransfer: return 1;
    case TimeCategory::kStaging: return 2;
    case TimeCategory::kIdle: return 3;
  }
  return 3;
}

struct BusyInterval {
  double start = 0.0;
  double end = 0.0;
  TimeCategory category = TimeCategory::kStaging;
};

/// A critical-path candidate: an exec/staging span clipped to the window.
struct Candidate {
  const TraceEvent* ev = nullptr;
  double start = 0.0;
  double end = 0.0;
  int unit = -1;
};

PathSegment make_wait(double start, double end) {
  PathSegment seg;
  seg.wait = true;
  seg.name = "wait";
  seg.cat = "wait";
  seg.start = start;
  seg.end = end;
  return seg;
}

PathSegment make_segment(const Candidate& c, double start, double end) {
  PathSegment seg;
  seg.name = c.ev->name;
  seg.cat = c.ev->cat;
  seg.process = c.ev->process;
  seg.track = c.ev->track;
  seg.unit = c.unit;
  seg.start = start;
  seg.end = end;
  return seg;
}

/// Backward last-finisher walk from run_end to run_start.  At each step the
/// chain extends to the unused candidate whose end is latest but not after
/// the current frontier (ties prefer the same unit, i.e. a real dependency
/// edge such as exec <- its own staging).  Gaps become wait segments, so the
/// result tiles [run_start, run_end] exactly.
std::vector<PathSegment> critical_path(std::vector<Candidate> cand, double run_start,
                                       double run_end) {
  std::vector<PathSegment> rev;
  if (run_end <= run_start) return rev;

  // Deterministic order for the walk: by end, then start, then lane.
  std::sort(cand.begin(), cand.end(), [](const Candidate& a, const Candidate& b) {
    if (a.end != b.end) return a.end < b.end;
    if (a.start != b.start) return a.start < b.start;
    if (a.ev->process != b.ev->process) return a.ev->process < b.ev->process;
    if (a.ev->track != b.ev->track) return a.ev->track < b.ev->track;
    return a.ev->name < b.ev->name;
  });
  std::vector<char> used(cand.size(), 0);

  // Latest unused candidate with end <= limit + kEps; among ends tied within
  // kEps, one matching `unit` wins (the dependency edge).
  const auto pick = [&](double limit, int unit) -> int {
    auto it = std::upper_bound(cand.begin(), cand.end(), limit + kEps,
                               [](double t, const Candidate& c) { return t < c.end; });
    int best = -1;
    for (auto i = static_cast<int>(it - cand.begin()) - 1; i >= 0; --i) {
      if (used[i]) continue;
      if (best == -1) {
        best = i;
        if (unit < 0 || cand[i].unit == unit) break;
        continue;
      }
      if (cand[i].end < cand[best].end - kEps) break;  // ties exhausted
      if (cand[i].unit == unit) {
        best = i;
        break;
      }
    }
    return best;
  };

  double t = run_end;
  int unit_pref = -1;
  while (t > run_start + kEps) {
    const int c = pick(t, unit_pref);
    if (c < 0) {
      rev.push_back(make_wait(run_start, t));
      break;
    }
    used[c] = 1;
    if (cand[c].end < t - kEps) {
      rev.push_back(make_wait(cand[c].end, t));
      t = cand[c].end;
    }
    // The segment covers up to the frontier exactly, so the chain tiles the
    // window and the durations sum to the makespan.
    const double e = t;
    const double s = std::min(std::max(cand[c].start, run_start), e);
    rev.push_back(make_segment(cand[c], s, e));
    t = s;
    unit_pref = cand[c].unit;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

/// Partition [run_start, run_end] for one worker lane into category
/// intervals.  Boundary sweep over the clipped busy intervals; each
/// elementary slice takes the highest-priority covering category, idle
/// where none covers.  Adjacent same-category slices are merged.
void sweep_worker(std::uint32_t worker, std::vector<BusyInterval> busy, double run_start,
                  double run_end, Attribution& attr, std::vector<GanttInterval>& gantt) {
  std::vector<double> points;
  points.push_back(run_start);
  points.push_back(run_end);
  for (auto& b : busy) {
    b.start = std::min(std::max(b.start, run_start), run_end);
    b.end = std::min(std::max(b.end, run_start), run_end);
    if (b.end > b.start) {
      points.push_back(b.start);
      points.push_back(b.end);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  GanttInterval open;
  bool has_open = false;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const double a = points[i];
    const double b = points[i + 1];
    if (b <= a) continue;
    TimeCategory cat = TimeCategory::kIdle;
    for (const auto& bi : busy) {
      if (bi.start <= a && bi.end >= b && priority(bi.category) < priority(cat)) {
        cat = bi.category;
      }
    }
    switch (cat) {
      case TimeCategory::kCompute: attr.compute += b - a; break;
      case TimeCategory::kTransfer: attr.transfer += b - a; break;
      case TimeCategory::kStaging: attr.staging += b - a; break;
      case TimeCategory::kIdle: attr.idle += b - a; break;
    }
    if (has_open && open.category == cat && open.end == a) {
      open.end = b;
    } else {
      if (has_open) gantt.push_back(open);
      open = {worker, cat, a, b};
      has_open = true;
    }
  }
  if (has_open) gantt.push_back(open);
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// "<seconds> s in violation" (the anchor's total, else the sum over the
/// breach spans), then one line per breach interval.
void render_breaches(std::ostream& os, const TraceAnalysis& a) {
  double violation = a.slo_violation_s;
  if (!a.slo_stats) {
    for (const auto& b : a.telemetry.breaches) violation += b.duration();
  }
  os << fmt("%.3f", violation) << " s in violation\n";
  for (const auto& b : a.telemetry.breaches) {
    char line[192];
    std::snprintf(line, sizeof(line), "  [%10.3f .. %10.3f] %9.3f s  %s > %g (peak %g)\n",
                  b.start, b.end, b.duration(), b.channel.c_str(), b.limit, b.peak);
    os << line;
  }
}

}  // namespace

const char* to_string(TimeCategory c) {
  switch (c) {
    case TimeCategory::kCompute: return "compute";
    case TimeCategory::kTransfer: return "transfer";
    case TimeCategory::kStaging: return "staging";
    case TimeCategory::kIdle: return "idle";
  }
  return "idle";
}

double Attribution::of(TimeCategory c) const {
  switch (c) {
    case TimeCategory::kCompute: return compute;
    case TimeCategory::kTransfer: return transfer;
    case TimeCategory::kStaging: return staging;
    case TimeCategory::kIdle: return idle;
  }
  return 0.0;
}

double TraceAnalysis::critical_path_seconds() const {
  double sum = 0.0;
  for (const auto& seg : critical_path) sum += seg.duration();
  return sum;
}

double TraceAnalysis::path_seconds(const std::string& cat) const {
  double sum = 0.0;
  for (const auto& seg : critical_path) {
    if (seg.cat == cat) sum += seg.duration();
  }
  return sum;
}

TraceAnalysis TraceAnalyzer::analyze(const std::vector<TraceEvent>& events) {
  TraceAnalysis out;
  out.events = events.size();
  if (events.empty()) return out;

  // Pass 1 — window, inventory, worker lanes, worker->vm mapping.
  double lo = events.front().start;
  double hi = events.front().end;
  std::set<std::uint32_t> worker_ids;
  std::map<std::uint32_t, std::set<std::uint32_t>> vm_workers;  // vm -> workers on it
  for (const auto& ev : events) {
    lo = std::min(lo, ev.start);
    hi = std::max(hi, ev.end);
    if (ev.kind == TraceEvent::Kind::kSpan) {
      ++out.spans;
      if (ev.cat == cat::kUnit) ++out.units;
      if (ev.cat == cat::kRun && !out.anchored) {
        out.anchored = true;
        out.run_start = ev.start;
        out.run_end = ev.end;
        // The summary args come in groups; the first arg of a group marks it
        // present (traces recorded before a group existed lack it).
        out.solver_stats = read_arg(ev, key::kNetSolves, out.net_solves);
        read_arg(ev, key::kNetFullSolves, out.net_full_solves);
        read_arg(ev, key::kNetDirtyClasses, out.net_dirty_classes);
        out.control_plane_stats = read_arg(ev, key::kCpInstantiations, out.cp_instantiations);
        read_arg(ev, key::kCpTemplated, out.cp_templated);
        read_arg(ev, key::kCpPatches, out.cp_patches);
        out.latency_stats = read_arg(ev, key::kLatencyP50, out.latency_p50);
        read_arg(ev, key::kLatencyP95, out.latency_p95);
        read_arg(ev, key::kLatencyP99, out.latency_p99);
        read_arg(ev, key::kSustainedTput, out.sustained_tput);
        out.slo_stats = read_arg(ev, key::kSloBreaches, out.slo_breach_count);
        read_arg(ev, key::kSloViolationS, out.slo_violation_s);
      }
      if (ev.cat == cat::kSlo) {
        SloBreach breach;
        breach.start = ev.start;
        breach.end = ev.end;
        if (const auto* ch = find_arg(ev, key::kChannel)) breach.channel = ch->value;
        read_arg(ev, key::kLimit, breach.limit);
        read_arg(ev, key::kPeak, breach.peak);
        out.telemetry.breaches.push_back(std::move(breach));
      }
      if (ev.process == kWorkerTrack && (ev.cat == cat::kExec || ev.cat == cat::kStaging)) {
        worker_ids.insert(ev.track);
        if (ev.cat == cat::kExec) {
          const int vm = id_arg(ev, key::kVm);
          if (vm >= 0) vm_workers[static_cast<std::uint32_t>(vm)].insert(ev.track);
        }
      }
    } else if (ev.kind == TraceEvent::Kind::kCounter) {
      // TelemetryProbe counters: one channel per event, the single arg
      // carries the sampled value as a decimal that re-parses exactly.
      if (ev.cat == cat::kTelemetry && !ev.args.empty()) {
        out.telemetry.series.add(ev.name, ev.start,
                                 std::strtod(ev.args.front().value.c_str(), nullptr));
      }
    } else if (ev.name == event::kTraceTruncated) {
      read_arg(ev, key::kDroppedEvents, out.dropped_events);
    }
  }
  if (!out.anchored) {
    out.run_start = lo;
    out.run_end = hi;
  }

  // Pass 2 — critical-path candidates and per-worker busy intervals.
  std::vector<Candidate> cand;
  std::map<std::uint32_t, std::vector<BusyInterval>> busy;
  for (const auto& ev : events) {
    if (ev.kind != TraceEvent::Kind::kSpan) continue;
    if (ev.cat != cat::kExec && ev.cat != cat::kStaging) continue;
    const double s = std::max(ev.start, out.run_start);
    const double e = std::min(ev.end, out.run_end);
    if (e < s) continue;  // entirely outside the run window
    cand.push_back({&ev, s, e, id_arg(ev, key::kUnit)});
    const TimeCategory cat = busy_category(ev);
    if (ev.process == kWorkerTrack) {
      busy[ev.track].push_back({s, e, cat});
    } else if (ev.process == kRunTrack) {
      // Node-level staging (stage-common / stage-node): the lane is the VM;
      // attribute the interval to every worker hosted on that VM.
      const auto it = vm_workers.find(ev.track);
      if (it != vm_workers.end()) {
        for (const auto w : it->second) busy[w].push_back({s, e, cat});
      }
    }
  }

  out.critical_path = critical_path(std::move(cand), out.run_start, out.run_end);

  for (const auto w : worker_ids) {
    WorkerUsage usage;
    usage.worker = w;
    auto it = busy.find(w);
    sweep_worker(w, it == busy.end() ? std::vector<BusyInterval>{} : std::move(it->second),
                 out.run_start, out.run_end, usage.attribution, out.gantt);
    out.totals.compute += usage.attribution.compute;
    out.totals.transfer += usage.attribution.transfer;
    out.totals.staging += usage.attribution.staging;
    out.totals.idle += usage.attribution.idle;
    out.workers.push_back(usage);
  }
  return out;
}

TraceAnalysis TraceAnalyzer::analyze(const Tracer& tracer) {
  auto analysis = analyze(tracer.events());
  if (analysis.dropped_events == 0) analysis.dropped_events = tracer.dropped_events();
  return analysis;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string render_report(const TraceAnalysis& a, std::size_t max_path_rows) {
  std::ostringstream os;
  os << "Trace analysis: makespan " << fmt("%.3f", a.makespan()) << " s"
     << (a.anchored ? "" : " (unanchored: min/max over events)") << ", "
     << a.workers.size() << " workers, " << a.units << " units, " << a.events
     << " events\n";
  if (a.truncated()) {
    os << "  WARNING: trace truncated — " << a.dropped_events
       << " events dropped at the tracer's cap; times below undercount\n";
  }
  if (a.solver_stats && a.net_solves > 0) {
    os << "Network solver: " << a.net_solves << " solves ("
       << fmt("%.1f", 100.0 * a.incremental_share()) << "% incremental, "
       << a.net_full_solves << " full, avg dirty set "
       << fmt("%.1f", a.avg_dirty_classes()) << " classes)\n";
  }
  if (a.control_plane_stats && a.cp_instantiations > 0) {
    os << "Control plane: " << a.cp_instantiations << " instantiations ("
       << fmt("%.1f", 100.0 * a.templated_share()) << "% templated, " << a.cp_patches
       << " patched)\n";
  }
  if (a.latency_stats) {
    os << "Open-loop latency: p50 " << fmt("%.3f", a.latency_p50) << " s, p95 "
       << fmt("%.3f", a.latency_p95) << " s, p99 " << fmt("%.3f", a.latency_p99)
       << " s (sustained " << fmt("%.3f", a.sustained_tput) << " units/s)\n";
  }
  if (!a.telemetry.series.empty()) {
    os << "Telemetry: " << a.telemetry.series.channels().size() << " channels, "
       << a.telemetry.series.sample_count()
       << " samples (see `frieda-trace timeline` for sparklines)\n";
  }
  if (a.slo_stats || !a.telemetry.breaches.empty()) {
    const std::size_t n =
        a.slo_stats ? a.slo_breach_count : a.telemetry.breaches.size();
    os << "SLO: " << n << " breach interval" << (n == 1 ? "" : "s") << ", ";
    render_breaches(os, a);
  }

  const double ws = a.worker_seconds();
  const auto share = [&](double v) {
    return ws > 0.0 ? fmt("%.1f", 100.0 * v / ws) + "%" : "-";
  };
  TextTable attr("Time attribution (" + std::to_string(a.workers.size()) + " workers x " +
                     fmt("%.3f", a.makespan()) + " s = " + fmt("%.3f", ws) +
                     " worker-seconds)",
                 {"Category", "Seconds", "Share"});
  attr.add_row({"compute (exec)", fmt("%.3f", a.totals.compute), share(a.totals.compute)});
  attr.add_row({"network transfer (remote reads)", fmt("%.3f", a.totals.transfer),
                share(a.totals.transfer)});
  attr.add_row({"storage staging (input placement)", fmt("%.3f", a.totals.staging),
                share(a.totals.staging)});
  attr.add_row({"idle / wait", fmt("%.3f", a.totals.idle), share(a.totals.idle)});
  attr.add_row({"total", fmt("%.3f", a.totals.total()), share(a.totals.total())});
  os << attr.to_string();

  if (!a.workers.empty() && a.workers.size() <= 48) {
    TextTable per("Per-worker breakdown (seconds)",
                  {"Worker", "Compute", "Transfer", "Staging", "Idle", "Busy"});
    for (const auto& w : a.workers) {
      const auto& at = w.attribution;
      const double total = at.total();
      per.add_row({std::to_string(w.worker), fmt("%.3f", at.compute),
                   fmt("%.3f", at.transfer), fmt("%.3f", at.staging), fmt("%.3f", at.idle),
                   total > 0.0 ? fmt("%.1f", 100.0 * at.busy() / total) + "%" : "-"});
    }
    os << per.to_string();
  }

  os << "Critical path: " << fmt("%.3f", a.critical_path_seconds()) << " s in "
     << a.critical_path.size() << " segments (exec " << fmt("%.3f", a.path_seconds("exec"))
     << " s, staging " << fmt("%.3f", a.path_seconds("staging")) << " s, wait "
     << fmt("%.3f", a.path_seconds("wait")) << " s)\n";
  const std::size_t n = a.critical_path.size();
  const std::size_t head = n <= max_path_rows ? n : max_path_rows / 2;
  const std::size_t tail = n <= max_path_rows ? 0 : max_path_rows - head;
  const auto print_seg = [&](const PathSegment& seg) {
    char line[192];
    std::snprintf(line, sizeof(line), "  [%10.3f .. %10.3f] %9.3f s  %-8s %s\n", seg.start,
                  seg.end, seg.duration(), seg.cat.c_str(), seg.name.c_str());
    os << line;
  };
  for (std::size_t i = 0; i < head; ++i) print_seg(a.critical_path[i]);
  if (tail > 0) {
    os << "  ... (" << n - head - tail << " segments elided) ...\n";
    for (std::size_t i = n - tail; i < n; ++i) print_seg(a.critical_path[i]);
  }
  return os.str();
}

std::string gantt_csv(const TraceAnalysis& a) {
  std::ostringstream os;
  os << "worker,category,start_s,end_s,dur_s\n";
  os.setf(std::ios::fixed);
  os.precision(6);
  for (const auto& g : a.gantt) {
    os << g.worker << "," << to_string(g.category) << "," << g.start << "," << g.end << ","
       << (g.end - g.start) << "\n";
  }
  return os.str();
}

std::string critical_path_csv(const TraceAnalysis& a) {
  std::ostringstream os;
  os << "segment,kind,cat,name,process,track,start_s,end_s,dur_s\n";
  os.setf(std::ios::fixed);
  os.precision(6);
  for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
    const auto& seg = a.critical_path[i];
    std::string name = seg.name;
    for (auto& c : name) {
      if (c == ',' || c == '\n') c = ' ';
    }
    os << i << "," << (seg.wait ? "wait" : "span") << "," << seg.cat << "," << name << ","
       << seg.process << "," << seg.track << "," << seg.start << "," << seg.end << ","
       << seg.duration() << "\n";
  }
  return os.str();
}

std::string render_timeline(const TraceAnalysis& a, std::size_t width) {
  std::ostringstream os;
  const auto& view = a.telemetry;
  if (view.empty()) {
    os << "Timeline: no telemetry counters in this trace (run without a "
          "TelemetryProbe attached)\n";
    return os.str();
  }
  if (width == 0) width = 1;

  os << "Timeline: " << view.series.channels().size() << " channels, "
     << view.series.sample_count() << " samples over ["
     << fmt("%.3f", a.run_start) << " s .. " << fmt("%.3f", a.run_end) << " s]\n";

  // One printable level per value: lowest -> ' ', highest -> '@'.
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // max ramp index

  TextTable table("Telemetry channels",
                  {"Channel", "Samples", "Min", "Mean", "Max", "Last", "Sparkline"});
  for (const auto& ch : view.series.channels()) {
    const std::size_t n = ch.v.size();
    double lo = ch.v[0], hi = ch.v[0], sum = 0.0;
    for (const double v : ch.v) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    // Resample to at most `width` columns: each column is the mean of an
    // equal share of consecutive samples.
    const std::size_t cols = std::min(n, width);
    std::string spark;
    spark.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t b0 = c * n / cols;
      const std::size_t b1 = std::max(b0 + 1, (c + 1) * n / cols);
      double bucket = 0.0;
      for (std::size_t i = b0; i < b1; ++i) bucket += ch.v[i];
      bucket /= static_cast<double>(b1 - b0);
      const std::size_t level =
          hi > lo ? static_cast<std::size_t>((bucket - lo) / (hi - lo) * kLevels + 0.5)
                  : kLevels / 2;
      spark.push_back(kRamp[std::min(level, kLevels)]);
    }
    table.add_row({ch.name, std::to_string(n), fmt("%.6g", lo),
                   fmt("%.6g", sum / static_cast<double>(n)), fmt("%.6g", hi),
                   fmt("%.6g", ch.v[n - 1]), spark});
  }
  os << table.to_string();

  if (!view.breaches.empty() || a.slo_stats) {
    os << "SLO breaches: " << view.breaches.size() << " interval"
       << (view.breaches.size() == 1 ? "" : "s") << ", ";
    render_breaches(os, a);
  } else {
    os << "SLO breaches: none recorded\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON loader (the inverse of Tracer::chrome_json)
// ---------------------------------------------------------------------------

namespace {

/// Minimal recursive-descent JSON reader; enough for trace-event documents.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  struct Value {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    const Value* find(const char* key) const {
      for (const auto& [k, v] : object) {
        if (k == key) return &v;
      }
      return nullptr;
    }
    /// Arg values may be strings or bare numbers/bools; normalize to text.
    std::string as_text() const {
      if (type == Type::kString) return str;
      if (type == Type::kBool) return boolean ? "true" : "false";
      if (type == Type::kNumber) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number);
        return buf;
      }
      return {};
    }
  };

  Value parse() {
    Value v = value();
    skip_ws();
    FRIEDA_CHECK(pos_ == s_.size(), "trace JSON: trailing garbage at byte " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Value value() {
    skip_ws();
    FRIEDA_CHECK(pos_ < s_.size(), "trace JSON: unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null_value();
      default: return number();
    }
  }

  Value object() {
    Value v;
    v.type = Value::Type::kObject;
    eat('{');
    if (eat('}')) return v;
    do {
      skip_ws();
      Value key = string_value();
      FRIEDA_CHECK(eat(':'), "trace JSON: expected ':' at byte " << pos_);
      v.object.emplace_back(std::move(key.str), value());
    } while (eat(','));
    FRIEDA_CHECK(eat('}'), "trace JSON: expected '}' at byte " << pos_);
    return v;
  }

  Value array() {
    Value v;
    v.type = Value::Type::kArray;
    eat('[');
    if (eat(']')) return v;
    do {
      v.array.push_back(value());
    } while (eat(','));
    FRIEDA_CHECK(eat(']'), "trace JSON: expected ']' at byte " << pos_);
    return v;
  }

  Value string_value() {
    Value v;
    v.type = Value::Type::kString;
    FRIEDA_CHECK(eat('"'), "trace JSON: expected string at byte " << pos_);
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        FRIEDA_CHECK(pos_ < s_.size(), "trace JSON: truncated escape");
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            FRIEDA_CHECK(pos_ + 4 <= s_.size(), "trace JSON: truncated \\u escape");
            const unsigned long code =
                std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);  // our exports only escape control chars
            break;
          }
          default: FRIEDA_CHECK(false, "trace JSON: bad escape '\\" << esc << "'");
        }
      }
      v.str.push_back(c);
    }
    FRIEDA_CHECK(eat('"'), "trace JSON: unterminated string");
    return v;
  }

  Value boolean() {
    Value v;
    v.type = Value::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      FRIEDA_CHECK(false, "trace JSON: bad literal at byte " << pos_);
    }
    return v;
  }

  Value null_value() {
    FRIEDA_CHECK(s_.compare(pos_, 4, "null") == 0,
                 "trace JSON: bad literal at byte " << pos_);
    pos_ += 4;
    return {};
  }

  Value number() {
    Value v;
    v.type = Value::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    FRIEDA_CHECK(pos_ > start, "trace JSON: expected a value at byte " << start);
    v.number = std::atof(s_.substr(start, pos_ - start).c_str());
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<TraceEvent> load_chrome_trace(const std::string& json_text) {
  JsonReader reader(json_text);
  const auto doc = reader.parse();
  FRIEDA_CHECK(doc.type == JsonReader::Value::Type::kObject,
               "trace JSON: top level is not an object");
  const auto* list = doc.find("traceEvents");
  FRIEDA_CHECK(list != nullptr && list->type == JsonReader::Value::Type::kArray,
               "trace JSON: no traceEvents array");

  std::vector<TraceEvent> events;
  events.reserve(list->array.size());
  for (const auto& rec : list->array) {
    FRIEDA_CHECK(rec.type == JsonReader::Value::Type::kObject,
                 "trace JSON: traceEvents entry is not an object");
    const auto* ph = rec.find("ph");
    if (ph == nullptr || ph->str == "M") continue;  // metadata
    TraceEvent ev;
    if (const auto* name = rec.find("name")) ev.name = name->str;
    if (const auto* cat = rec.find("cat")) ev.cat = cat->str;
    if (const auto* pid = rec.find("pid")) ev.process = static_cast<std::uint32_t>(pid->number);
    if (const auto* tid = rec.find("tid")) ev.track = static_cast<std::uint32_t>(tid->number);
    const auto* ts = rec.find("ts");
    FRIEDA_CHECK(ts != nullptr, "trace JSON: event without ts");
    ev.start = ts->number / 1e6;
    if (ph->str == "X") {
      ev.kind = TraceEvent::Kind::kSpan;
      const auto* dur = rec.find("dur");
      ev.end = ev.start + (dur != nullptr ? dur->number / 1e6 : 0.0);
    } else if (ph->str == "C") {
      ev.kind = TraceEvent::Kind::kCounter;
      ev.end = ev.start;
    } else {
      ev.kind = TraceEvent::Kind::kInstant;
      ev.end = ev.start;
    }
    if (const auto* args = rec.find("args")) {
      for (const auto& [k, v] : args->object) ev.args.push_back({k, v.as_text()});
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<TraceEvent> read_chrome_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FRIEDA_CHECK(in.good(), "cannot open trace file '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  FRIEDA_CHECK(in.good() || in.eof(), "read from trace file '" << path << "' failed");
  return load_chrome_trace(buf.str());
}

}  // namespace frieda::obs
