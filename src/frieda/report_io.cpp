#include "frieda/report_io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace frieda::core {

namespace {

constexpr const char* kRunHeader = "frieda-run-report v1";

void append_hex(std::string& out, std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) out += digits[(v >> shift) & 0xf];
}

// Strict unsigned parse: decimal digits only, full consumption, no sign.
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

std::optional<bool> parse_bool01(const std::string& s) {
  if (s == "0") return false;
  if (s == "1") return true;
  return std::nullopt;
}

// Line cursor over the serialized text; every getter throws on truncation,
// so a child that died mid-write surfaces as a parse error, not garbage.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  std::string next(const char* what) {
    FRIEDA_CHECK(pos_ < text_.size(), "truncated report: missing " << what);
    const std::size_t nl = std::min(text_.find('\n', pos_), text_.size());
    std::string line(text_.substr(pos_, nl - pos_));
    pos_ = nl + 1;
    return line;
  }

  // Lines not yet read (a final line without '\n' counts): an upper bound on
  // the records a header count may still promise.
  std::size_t lines_left() const {
    if (pos_ >= text_.size()) return 0;
    const auto rest = text_.substr(pos_);
    return static_cast<std::size_t>(std::count(rest.begin(), rest.end(), '\n')) +
           (rest.back() == '\n' ? 0 : 1);
  }

  // Next line split into fields; checks the record tag and field count.
  std::vector<std::string> record(const char* tag, std::size_t fields) {
    const std::string line = next(tag);
    auto parts = split_escaped(line);
    FRIEDA_CHECK(parts.has_value(), "malformed report line '" << line << "'");
    FRIEDA_CHECK(parts->size() == fields && (*parts)[0] == tag,
                 "expected " << fields << "-field '" << tag << "' record, got '" << line
                             << "'");
    return std::move(*parts);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

double require_f64(const std::string& field) {
  const auto v = parse_f64_bits(field);
  FRIEDA_CHECK(v.has_value(), "malformed f64 field '" << field << "'");
  return *v;
}

std::uint64_t require_u64(const std::string& field) {
  const auto v = parse_u64(field);
  FRIEDA_CHECK(v.has_value(), "malformed integer field '" << field << "'");
  return *v;
}

// An unsigned field narrowed to T; a value T cannot hold is rejected by
// name instead of wrapping in the cast.
template <typename T>
T require_uint(const std::string& field, const char* name) {
  const std::uint64_t v = require_u64(field);
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  FRIEDA_CHECK(v <= kMax, "field " << name << " must be in [0, " << kMax << "], got " << v);
  return static_cast<T>(v);
}

bool require_bool(const std::string& field) {
  const auto v = parse_bool01(field);
  FRIEDA_CHECK(v.has_value(), "malformed bool field '" << field << "' (want 0/1)");
  return *v;
}

}  // namespace

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '|': out += "\\|"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::optional<std::vector<std::string>> split_escaped(const std::string& line) {
  std::vector<std::string> parts(1);
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) return std::nullopt;
      const char next = line[++i];
      switch (next) {
        case '\\': parts.back() += '\\'; break;
        case '|': parts.back() += '|'; break;
        case 'n': parts.back() += '\n'; break;
        default: return std::nullopt;
      }
    } else if (c == '|') {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

std::string f64_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  std::string out;
  out.reserve(16);
  append_hex(out, bits);
  return out;
}

std::optional<double> parse_f64_bits(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t bits = 0;
  for (char c : s) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
    bits = (bits << 4) | digit;
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string serialize_run_report(const RunReport& r) {
  std::ostringstream os;
  os << kRunHeader << "\n";
  os << "size|" << r.units.size() << "|" << r.workers.size() << "|"
     << r.timeline.intervals().size() << "|" << r.latency.count() << "\n";
  os << "head|" << escape_field(r.app) << "|" << escape_field(r.strategy) << "|"
     << escape_field(r.scheme) << "\n";
  os << "time|" << f64_bits(r.ready_time) << "|" << f64_bits(r.start_time) << "|"
     << f64_bits(r.staging_end) << "|" << f64_bits(r.end_time) << "\n";
  os << "units|" << r.units_total << "|" << r.units_completed << "|" << r.units_failed
     << "|" << r.units_unprocessed << "\n";
  os << "net|" << r.bytes_moved << "|" << r.transfers << "|" << r.workers_isolated << "\n";
  os << "svc|" << (r.open_loop ? 1 : 0) << "|" << f64_bits(r.serve_start) << "|"
     << r.scale_outs << "|" << r.scale_ins << "\n";
  for (const double s : r.latency.samples()) os << "l|" << f64_bits(s) << "\n";
  for (const auto& u : r.units) {
    os << "u|" << u.unit << "|" << static_cast<int>(u.status) << "|" << u.worker << "|"
       << u.attempts << "|" << f64_bits(u.arrival) << "|" << f64_bits(u.dispatched) << "|"
       << f64_bits(u.finished) << "|" << f64_bits(u.transfer_seconds) << "|"
       << f64_bits(u.exec_seconds) << "\n";
  }
  for (const auto& w : r.workers) {
    os << "w|" << w.worker << "|" << w.vm << "|" << w.slot << "|" << w.units_completed
       << "|" << f64_bits(w.busy_seconds) << "|" << (w.isolated ? 1 : 0) << "|"
       << (w.drained ? 1 : 0) << "\n";
  }
  for (const auto& iv : r.timeline.intervals()) {
    os << "i|" << static_cast<int>(iv.kind) << "|" << f64_bits(iv.start) << "|"
       << f64_bits(iv.end) << "|" << escape_field(iv.label) << "\n";
  }
  os << "end\n";
  return os.str();
}

RunReport deserialize_run_report(const std::string& text) {
  LineReader in(text);
  FRIEDA_CHECK(in.next("header") == kRunHeader,
               "not a serialized run report (want '" << kRunHeader << "' header)");
  const auto size = in.record("size", 5);
  // Every counted record takes a line of its own, so a count beyond the
  // lines left is corrupt; reject it before it sizes any allocation.
  const std::size_t lines_left = in.lines_left();
  const auto count = [&](const std::string& field, const char* name) {
    const std::uint64_t n = require_u64(field);
    FRIEDA_CHECK(n <= lines_left, "report claims " << n << " " << name
                                                   << " records but only " << lines_left
                                                   << " lines follow");
    return static_cast<std::size_t>(n);
  };
  const std::size_t n_units = count(size[1], "unit");
  const std::size_t n_workers = count(size[2], "worker");
  const std::size_t n_intervals = count(size[3], "interval");
  const std::size_t n_latency = count(size[4], "latency");

  RunReport r;
  const auto head = in.record("head", 4);
  r.app = head[1];
  r.strategy = head[2];
  r.scheme = head[3];
  const auto time = in.record("time", 5);
  r.ready_time = require_f64(time[1]);
  r.start_time = require_f64(time[2]);
  r.staging_end = require_f64(time[3]);
  r.end_time = require_f64(time[4]);
  const auto units = in.record("units", 5);
  r.units_total = require_u64(units[1]);
  r.units_completed = require_u64(units[2]);
  r.units_failed = require_u64(units[3]);
  r.units_unprocessed = require_u64(units[4]);
  const auto net = in.record("net", 4);
  r.bytes_moved = require_u64(net[1]);
  r.transfers = require_u64(net[2]);
  r.workers_isolated = require_u64(net[3]);
  const auto svc = in.record("svc", 5);
  r.open_loop = require_bool(svc[1]);
  r.serve_start = require_f64(svc[2]);
  r.scale_outs = require_u64(svc[3]);
  r.scale_ins = require_u64(svc[4]);

  for (std::size_t i = 0; i < n_latency; ++i) {
    r.latency.add(require_f64(in.record("l", 2)[1]));
  }
  r.units.reserve(n_units);
  for (std::size_t i = 0; i < n_units; ++i) {
    const auto u = in.record("u", 10);
    UnitRecord rec;
    rec.unit = require_uint<WorkUnitId>(u[1], "unit");
    const std::uint64_t status = require_u64(u[2]);
    FRIEDA_CHECK(status <= static_cast<std::uint64_t>(UnitStatus::kUnprocessed),
                 "unknown unit status " << status);
    rec.status = static_cast<UnitStatus>(status);
    rec.worker = require_uint<WorkerId>(u[3], "worker");
    rec.attempts = require_uint<int>(u[4], "attempts");
    rec.arrival = require_f64(u[5]);
    rec.dispatched = require_f64(u[6]);
    rec.finished = require_f64(u[7]);
    rec.transfer_seconds = require_f64(u[8]);
    rec.exec_seconds = require_f64(u[9]);
    r.units.push_back(rec);
  }
  r.workers.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    const auto w = in.record("w", 8);
    WorkerReport rec;
    rec.worker = require_uint<WorkerId>(w[1], "worker");
    rec.vm = require_uint<std::uint32_t>(w[2], "vm");
    rec.slot = require_uint<unsigned>(w[3], "slot");
    rec.units_completed = require_u64(w[4]);
    rec.busy_seconds = require_f64(w[5]);
    rec.isolated = require_bool(w[6]);
    rec.drained = require_bool(w[7]);
    r.workers.push_back(rec);
  }
  for (std::size_t i = 0; i < n_intervals; ++i) {
    const auto iv = in.record("i", 5);
    const std::uint64_t kind = require_u64(iv[1]);
    FRIEDA_CHECK(kind <= static_cast<std::uint64_t>(ActivityKind::kStage),
                 "unknown activity kind " << kind);
    r.timeline.record(static_cast<ActivityKind>(kind), require_f64(iv[2]),
                      require_f64(iv[3]), iv[4]);
  }
  FRIEDA_CHECK(in.next("end marker") == "end", "truncated report: missing end marker");
  return r;
}

}  // namespace frieda::core
