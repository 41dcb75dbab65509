#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace frieda::obs {

namespace {

/// JSON string escaping for names, categories, and argument values.
void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += "\"";
  return out;
}

/// Seconds -> integer microseconds (the trace-event timestamp unit).
long long micros(double seconds) {
  return static_cast<long long>(seconds * 1e6 + 0.5);
}

const char* process_name(std::uint32_t pid) {
  switch (pid) {
    case kRunTrack: return "run";
    case kWorkerTrack: return "workers";
    case kUnitTrack: return "units";
    case kNetworkTrack: return "network";
    case kTelemetryTrack: return "telemetry";
  }
  return "other";
}

/// CSV field quoting per RFC 4180 (only when the field needs it).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

void Tracer::append(TraceEvent ev, TraceEvent::Kind kind) {
  ev.kind = kind;
  // A span ends no earlier than it starts; instants and counters are points.
  ev.end = kind == TraceEvent::Kind::kSpan ? std::max(ev.end, ev.start) : ev.start;
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void Tracer::span(TraceEvent ev) { append(std::move(ev), TraceEvent::Kind::kSpan); }

void Tracer::instant(TraceEvent ev) { append(std::move(ev), TraceEvent::Kind::kInstant); }

void Tracer::counter(TraceEvent ev) { append(std::move(ev), TraceEvent::Kind::kCounter); }

void Tracer::set_max_events(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_events_ = cap;
}

std::size_t Tracer::max_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_events_;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t Tracer::span_count(const std::string& cat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& ev : events_) {
    n += ev.kind == TraceEvent::Kind::kSpan && ev.cat == cat;
  }
  return n;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;

  // Name the track groups so Perfetto shows "units"/"workers"/... headers.
  std::uint32_t seen_mask = 0;
  for (const auto& ev : events_) {
    if (ev.process == 0 || ev.process > 31 || (seen_mask & (1u << ev.process))) continue;
    seen_mask |= 1u << ev.process;
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(ev.process);
    out += ",\"tid\":0,\"args\":{\"name\":";
    out += json_quote(process_name(ev.process));
    out += "}}";
  }

  for (const auto& ev : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    out += json_quote(ev.name);
    out += ",\"cat\":";
    out += json_quote(ev.cat);
    out += ",\"pid\":";
    out += std::to_string(ev.process);
    out += ",\"tid\":";
    out += std::to_string(ev.track);
    out += ",\"ts\":";
    out += std::to_string(micros(ev.start));
    if (ev.kind == TraceEvent::Kind::kSpan) {
      out += ",\"ph\":\"X\",\"dur\":";
      out += std::to_string(micros(ev.end) - micros(ev.start));
    } else if (ev.kind == TraceEvent::Kind::kCounter) {
      out += ",\"ph\":\"C\"";
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < ev.args.size(); ++i) {
        if (i) out += ",";
        out += json_quote(ev.args[i].key);
        out += ":";
        // Counter channel values are JSON numbers (viewers reject quoted
        // counter values); everything else stays a quoted string.
        if (ev.kind == TraceEvent::Kind::kCounter) out += ev.args[i].value;
        else out += json_quote(ev.args[i].value);
      }
      out += "}";
    }
    out += "}";
  }
  if (dropped_ > 0) {
    // Truncation marker: a clipped trace must never read as a complete one.
    double last = 0.0;
    for (const auto& ev : events_) last = std::max(last, ev.end);
    if (!first) out += ",";
    out += "{\"name\":\"trace-truncated\",\"cat\":\"control\",\"pid\":";
    out += std::to_string(static_cast<std::uint32_t>(kRunTrack));
    out += ",\"tid\":0,\"ts\":";
    out += std::to_string(micros(last));
    out += ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"dropped_events\":\"";
    out += std::to_string(dropped_);
    out += "\"}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "kind,name,cat,process,track,start_s,end_s,dur_s,args\n";
  os.setf(std::ios::fixed);
  os.precision(6);
  for (const auto& ev : events_) {
    std::string args;
    for (std::size_t i = 0; i < ev.args.size(); ++i) {
      if (i) args += ";";
      args += ev.args[i].key + "=" + ev.args[i].value;
    }
    const char* kind = ev.kind == TraceEvent::Kind::kSpan      ? "span"
                       : ev.kind == TraceEvent::Kind::kCounter ? "counter"
                                                               : "instant";
    os << kind << ","
       << csv_field(ev.name) << "," << csv_field(ev.cat) << "," << ev.process << ","
       << ev.track << "," << ev.start << "," << ev.end << "," << (ev.end - ev.start) << ","
       << csv_field(args) << "\n";
  }
  if (dropped_ > 0) {
    double last = 0.0;
    for (const auto& ev : events_) last = std::max(last, ev.end);
    os << "instant,trace-truncated,control," << static_cast<std::uint32_t>(kRunTrack)
       << ",0," << last << "," << last << ",0,dropped_events=" << dropped_ << "\n";
  }
  return os.str();
}

void Tracer::write_chrome_json(const std::string& path) const {
  write_text_file(path, chrome_json(), "trace");
}

void Tracer::write_csv(const std::string& path) const { write_text_file(path, csv(), "trace"); }

void write_text_file(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path, std::ios::trunc);
  FRIEDA_CHECK(out.good(), "cannot open " << what << " file '" << path << "'");
  out << text;
  FRIEDA_CHECK(out.good(), "write to " << what << " file '" << path << "' failed");
}

}  // namespace frieda::obs
