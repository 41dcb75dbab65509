#include "obs/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "obs/vocab.hpp"

namespace frieda::obs {

std::string format_sample(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  FRIEDA_CHECK(res.ec == std::errc(), "format_sample: to_chars failed");
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Timeseries

void Timeseries::add(const std::string& channel, double t, double v) {
  auto it = std::find_if(channels_.begin(), channels_.end(),
                         [&](const Channel& ch) { return ch.name == channel; });
  if (it == channels_.end()) it = channels_.insert(it, Channel{channel, {}, {}});
  it->t.push_back(t);
  it->v.push_back(v);
}

const Timeseries::Channel* Timeseries::find(const std::string& name) const {
  for (const auto& ch : channels_) {
    if (ch.name == name) return &ch;
  }
  return nullptr;
}

std::size_t Timeseries::sample_count() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch.t.size();
  return n;
}

std::string Timeseries::csv() const {
  std::string out = "channel,t_s,value\n";
  for (const auto& ch : channels_) {
    for (std::size_t i = 0; i < ch.t.size(); ++i) {
      out += ch.name;
      out += ",";
      out += format_sample(ch.t[i]);
      out += ",";
      out += format_sample(ch.v[i]);
      out += "\n";
    }
  }
  return out;
}

void Timeseries::write_csv(const std::string& path) const {
  write_text_file(path, csv(), "timeline");
}

// ---------------------------------------------------------------------------
// LatencyWindow

LatencyWindow::LatencyWindow(std::size_t max_count, double max_age)
    : max_count_(max_count), max_age_(max_age) {}

void LatencyWindow::add(double t, double v) {
  buf_.emplace_back(t, v);
  if (max_count_ != 0) {
    while (buf_.size() > max_count_) buf_.pop_front();
  }
}

void LatencyWindow::evict(double now) {
  if (max_age_ <= 0.0) return;
  const double cutoff = now - max_age_;
  while (!buf_.empty() && buf_.front().first < cutoff) buf_.pop_front();
}

double LatencyWindow::percentile(double p) const {
  FRIEDA_CHECK(!buf_.empty(), "percentile of empty latency window");
  // Exactly SampleSet::percentile over the window contents (numpy-style
  // linear interpolation at rank p/100*(n-1)).
  SampleSet window;
  for (const auto& [t, v] : buf_) window.add(v);
  return window.percentile(p);
}

std::vector<double> LatencyWindow::values() const {
  std::vector<double> out;
  out.reserve(buf_.size());
  for (const auto& [t, v] : buf_) out.push_back(v);
  return out;
}

// ---------------------------------------------------------------------------
// SLO evaluation

double SloReport::total_violation_s() const {
  double s = 0.0;
  for (const auto& t : targets) s += t.violation_s;
  return s;
}

std::string SloReport::summary() const {
  if (targets.empty()) return "SLO: no targets declared\n";
  std::ostringstream os;
  for (const auto& t : targets) {
    char line[160];
    std::snprintf(line, sizeof(line), "SLO %s <= %g: %zu breach%s, %.3f s in violation\n",
                  t.target.channel.c_str(), t.target.limit, t.breaches,
                  t.breaches == 1 ? "" : "es", t.violation_s);
    os << line;
  }
  return os.str();
}

SloReport SloMonitor::evaluate(const Timeseries& series, double end_time) const {
  SloReport report;
  for (const auto& target : targets_) {
    SloReport::Target summary;
    summary.target = target;
    const Timeseries::Channel* ch = series.find(target.channel);
    if (ch != nullptr) {
      // Sample-and-hold: the value at t[i] governs [t[i], t[i+1]), the last
      // sample governs [t[n-1], end_time].
      SloBreach open;
      bool in_breach = false;
      for (std::size_t i = 0; i < ch->t.size(); ++i) {
        const double next = i + 1 < ch->t.size() ? ch->t[i + 1] : std::max(end_time, ch->t[i]);
        if (ch->v[i] > target.limit) {
          if (!in_breach) {
            open = SloBreach{target.channel, target.limit, ch->t[i], next, ch->v[i]};
            in_breach = true;
          } else {
            open.end = next;
            open.peak = std::max(open.peak, ch->v[i]);
          }
        } else if (in_breach) {
          ++summary.breaches;
          summary.violation_s += open.duration();
          report.breaches.push_back(open);
          in_breach = false;
        }
      }
      if (in_breach) {
        ++summary.breaches;
        summary.violation_s += open.duration();
        report.breaches.push_back(open);
      }
    }
    report.targets.push_back(std::move(summary));
  }
  return report;
}

// ---------------------------------------------------------------------------
// TelemetryProbe

TelemetryProbe::TelemetryProbe(TelemetryOptions opt) : opt_(std::move(opt)) {
  FRIEDA_CHECK(opt_.interval > 0.0, "telemetry interval must be > 0");
}

void TelemetryProbe::begin(double t0, Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracer_ = tracer;
  series_ = Timeseries{};
  window_ = LatencyWindow(opt_.window_count, opt_.window_seconds);
  slo_report_ = SloReport{};
  t0_ = t0;
  last_tick_ = t0;
  last_completed_ = 0.0;
  last_net_solves_ = 0.0;
  ticks_ = 0;
  begun_ = true;
  finished_ = false;
}

void TelemetryProbe::observe_latency(double now, double sojourn) {
  std::lock_guard<std::mutex> lock(mutex_);
  window_.add(now, sojourn);
}

void TelemetryProbe::record(const std::string& channel, double t, double v) {
  series_.add(channel, t, v);
  if (tracer_ != nullptr) {
    tracer_->counter({.name = channel, .cat = cat::kTelemetry, .process = kTelemetryTrack,
                      .start = t, .args = {{channel, format_sample(v)}}});
  }
}

void TelemetryProbe::tick(double now, const TelemetryTick& raw) {
  std::lock_guard<std::mutex> lock(mutex_);
  FRIEDA_CHECK(begun_, "TelemetryProbe::tick before begin()");
  // Sample times are strictly increasing: a final flush that lands exactly
  // on the last scheduled tick is a no-op instead of a duplicate column.
  if (ticks_ > 0 && now <= last_tick_) return;
  window_.evict(now);

  record("queue_depth", now, raw.queue_depth);
  record("in_flight", now, raw.in_flight);
  record("active_workers", now, raw.active_workers);
  record("active_vms", now, raw.active_vms);
  record("completed", now, raw.completed);
  const double dt = now - last_tick_;
  if (dt > 0.0) {
    record("throughput", now, (raw.completed - last_completed_) / dt);
  }
  record("net_solves", now, raw.net_solves - last_net_solves_);
  record("scale_outs", now, raw.scale_outs);
  record("scale_ins", now, raw.scale_ins);
  if (!window_.empty()) {
    record("latency_p50", now, window_.percentile(50.0));
    record("latency_p95", now, window_.percentile(95.0));
    record("latency_p99", now, window_.percentile(99.0));
  }

  last_tick_ = now;
  last_completed_ = raw.completed;
  last_net_solves_ = raw.net_solves;
  ++ticks_;
}

void TelemetryProbe::finish(double end_time) {
  std::lock_guard<std::mutex> lock(mutex_);
  FRIEDA_CHECK(begun_, "TelemetryProbe::finish before begin()");
  if (finished_) return;
  slo_report_ = SloMonitor(opt_.slo).evaluate(series_, end_time);
  if (tracer_ != nullptr) {
    for (const auto& breach : slo_report_.breaches) {
      std::uint32_t lane = 0;
      for (std::size_t i = 0; i < opt_.slo.size(); ++i) {
        if (opt_.slo[i].channel == breach.channel) lane = static_cast<std::uint32_t>(i);
      }
      tracer_->span({.name = event::kSloBreach, .cat = cat::kSlo, .process = kTelemetryTrack,
                     .track = lane, .start = breach.start, .end = breach.end,
                     .args = {{key::kChannel, breach.channel},
                              {key::kLimit, format_sample(breach.limit)},
                              {key::kPeak, format_sample(breach.peak)}}});
    }
  }
  finished_ = true;
}

}  // namespace frieda::obs
