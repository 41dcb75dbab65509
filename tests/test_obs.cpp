// Observability layer tests: the tracer and metrics registry in isolation,
// plus a traced Figure-6a scenario validated structurally — the Chrome JSON
// export parses, unit spans cover every unit, staging/exec spans nest inside
// their unit's lifecycle span, and the CSV has one row per recorded event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/rt_engine.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace frieda::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader, just enough to validate the trace-event export.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key '" << key << "'";
    static const Json null_json;
    return it == object.end() ? null_json : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing garbage after JSON document";
    return v;
  }

  bool failed() const { return failed_; }

 private:
  void fail(const std::string& why) {
    if (!failed_) ADD_FAILURE() << "JSON parse error at byte " << pos_ << ": " << why;
    failed_ = true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  Json value() {
    skip_ws();
    if (failed_ || pos_ >= s_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    eat('{');
    if (eat('}')) return v;
    do {
      skip_ws();
      Json key = string_value();
      if (failed_) return v;
      if (!eat(':')) {
        fail("expected ':' in object");
        return v;
      }
      v.object.emplace(key.str, value());
    } while (eat(',') && !failed_);
    if (!eat('}')) fail("expected '}'");
    return v;
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    eat('[');
    if (eat(']')) return v;
    do {
      v.array.push_back(value());
    } while (eat(',') && !failed_);
    if (!eat(']')) fail("expected ']'");
    return v;
  }

  Json string_value() {
    Json v;
    v.type = Json::Type::kString;
    if (!eat('"')) {
      fail("expected '\"'");
      return v;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
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
            if (pos_ + 4 > s_.size()) {
              fail("truncated \\u escape");
              return v;
            }
            const unsigned long code = std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);  // control chars only in our exports
            break;
          }
          default: fail("bad escape"); return v;
        }
      }
      v.str.push_back(c);
    }
    if (!eat('"')) fail("unterminated string");
    return v;
  }

  Json boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json null_value() {
    Json v;
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json number() {
    Json v;
    v.type = Json::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) {
      fail("expected number");
      return v;
    }
    v.number = std::atof(s_.substr(start, pos_ - start).c_str());
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (const char c : text) n += (c == '\n');
  return n;
}

// ---------------------------------------------------------------------------
// Tracer in isolation
// ---------------------------------------------------------------------------

TEST(Tracer, RecordsSpansAndInstants) {
  Tracer t;
  TraceEvent span;
  span.name = "exec unit 0";
  span.cat = "exec";
  span.process = kWorkerTrack;
  span.track = 3;
  span.start = 1.0;
  span.end = 2.5;
  span.args = {{"unit", "0"}};
  t.span(span);

  TraceEvent inst;
  inst.name = "requeue";
  inst.cat = "control";
  inst.start = 4.0;
  t.instant(inst);

  EXPECT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.span_count("exec"), 1u);
  EXPECT_EQ(t.span_count("control"), 0u);  // instants are not spans
  const auto events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSpan);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kInstant);
}

TEST(Tracer, CsvHasOneRowPerEventAndQuotesSpecials) {
  Tracer t;
  TraceEvent span;
  span.name = "stage file,with\"comma";  // must be RFC-4180 quoted
  span.cat = "staging";
  span.start = 0.0;
  span.end = 1.0;
  span.args = {{"file", "a,b"}};
  t.span(span);
  TraceEvent inst;
  inst.name = "evict";
  inst.cat = "control";
  inst.start = 2.0;
  t.instant(inst);

  const std::string csv = t.csv();
  EXPECT_EQ(count_lines(csv), 1 + t.event_count());  // header + one row each
  EXPECT_NE(csv.find("\"stage file,with\"\"comma\""), std::string::npos);
  EXPECT_EQ(csv.substr(0, 4), "kind");
}

TEST(Tracer, ChromeJsonParsesAndEscapes) {
  Tracer t;
  TraceEvent span;
  span.name = "weird \"name\"\nwith newline";
  span.cat = "unit";
  span.process = kUnitTrack;
  span.track = 7;
  span.start = 0.5;
  span.end = 1.5;
  t.span(span);

  const std::string json = t.chrome_json();
  JsonParser parser(json);
  const Json doc = parser.parse();
  ASSERT_FALSE(parser.failed());
  ASSERT_EQ(doc.type, Json::Type::kObject);
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  // One metadata process_name record plus the span.
  bool found_span = false;
  for (const auto& ev : events.array) {
    if (ev.at("ph").str != "X") continue;
    found_span = true;
    EXPECT_EQ(ev.at("name").str, span.name);
    EXPECT_DOUBLE_EQ(ev.at("ts").number, 0.5e6);   // microseconds
    EXPECT_DOUBLE_EQ(ev.at("dur").number, 1.0e6);
    EXPECT_DOUBLE_EQ(ev.at("pid").number, kUnitTrack);
    EXPECT_DOUBLE_EQ(ev.at("tid").number, 7.0);
  }
  EXPECT_TRUE(found_span);
}

TEST(Tracer, EventCapDropsAndCountsAndMarksExports) {
  Tracer t;
  EXPECT_EQ(t.max_events(), Tracer::kDefaultMaxEvents);
  t.set_max_events(2);
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.name = "exec unit " + std::to_string(i);
    ev.cat = "exec";
    ev.start = static_cast<double>(i);
    ev.end = static_cast<double>(i) + 0.5;
    t.span(std::move(ev));
  }
  EXPECT_EQ(t.event_count(), 2u);  // stored
  EXPECT_EQ(t.dropped_events(), 3u);

  // Both exporters carry a truncation marker naming the dropped count.
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("trace-truncated"), std::string::npos);
  EXPECT_NE(csv.find("dropped_events=3"), std::string::npos);
  EXPECT_EQ(count_lines(csv), 1 + t.event_count() + 1);  // header + rows + marker
  const std::string json = t.chrome_json();
  JsonParser parser(json);
  const Json doc = parser.parse();
  ASSERT_FALSE(parser.failed());
  bool marker = false;
  for (const auto& ev : doc.at("traceEvents").array) {
    marker |= ev.has("name") && ev.at("name").str == "trace-truncated";
  }
  EXPECT_TRUE(marker);
}

TEST(Tracer, NoMarkerWithoutDrops) {
  Tracer t;
  TraceEvent ev;
  ev.name = "exec unit 0";
  ev.cat = "exec";
  ev.end = 1.0;
  t.span(std::move(ev));
  EXPECT_EQ(t.dropped_events(), 0u);
  EXPECT_EQ(t.csv().find("trace-truncated"), std::string::npos);
  EXPECT_EQ(t.chrome_json().find("trace-truncated"), std::string::npos);
}

TEST(Tracer, UnboundedCapStoresEverything) {
  Tracer t;
  t.set_max_events(0);  // unbounded
  for (int i = 0; i < 100; ++i) {
    TraceEvent ev;
    ev.name = "e";
    ev.cat = "exec";
    t.span(std::move(ev));
  }
  EXPECT_EQ(t.event_count(), 100u);
  EXPECT_EQ(t.dropped_events(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics registry in isolation
// ---------------------------------------------------------------------------

TEST(Metrics, CreateOrGetAndKindConflicts) {
  MetricsRegistry m;
  Counter& c = m.counter("net.transfers");
  c.inc();
  c.inc(4);
  EXPECT_EQ(m.counter("net.transfers").value(), 5u);  // same instrument
  m.gauge("run.makespan_s").set(12.5);
  EXPECT_EQ(m.size(), 2u);

  EXPECT_THROW(m.gauge("net.transfers"), FriedaError);
  EXPECT_THROW(m.counter("run.makespan_s"), FriedaError);
  EXPECT_THROW(m.stats("net.transfers"), FriedaError);

  EXPECT_NE(m.find_counter("net.transfers"), nullptr);
  EXPECT_EQ(m.find_counter("run.makespan_s"), nullptr);  // wrong kind
  EXPECT_EQ(m.find_gauge("absent"), nullptr);
}

TEST(Metrics, StatsAndHistogramExpandInCsv) {
  MetricsRegistry m;
  auto& s = m.stats("run.unit_exec_s");
  s.add(1.0);
  s.add(3.0);
  auto& h = m.histogram("run.latency", 0.0, 10.0, 2);
  h.add(1.0);
  h.add(9.0);
  // Re-request with different parameters: the first creation wins.
  EXPECT_EQ(&m.histogram("run.latency", 0.0, 99.0, 7), &h);

  const std::string csv = m.csv();
  EXPECT_NE(csv.find("run.unit_exec_s.count"), std::string::npos);
  EXPECT_NE(csv.find("run.unit_exec_s.mean"), std::string::npos);
  EXPECT_NE(csv.find("run.latency.bucket_0"), std::string::npos);
  EXPECT_NE(csv.find("run.latency.bucket_1"), std::string::npos);
  EXPECT_NE(csv.find("run.latency.total"), std::string::npos);
  const std::string summary = m.summary();
  EXPECT_NE(summary.find("run.unit_exec_s"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Traced Figure-6a scenario: structural validation
// ---------------------------------------------------------------------------

struct TracedRun {
  Tracer tracer;
  MetricsRegistry metrics;
  core::RunReport report;
};

const TracedRun& traced_fig6a() {
  static TracedRun* run = [] {
    auto* r = new TracedRun;
    workload::PaperScenarioOptions opt;
    opt.scale = 0.02;
    opt.tracer = &r->tracer;
    opt.metrics = &r->metrics;
    r->report = workload::run_als(core::PlacementStrategy::kRealTime, opt);
    r->report.fill_metrics(r->metrics);
    return r;
  }();
  return *run;
}

TEST(TracedFig6a, UnitSpanPerUnitAndCsvRowPerEvent) {
  const auto& run = traced_fig6a();
  EXPECT_TRUE(run.report.all_completed());
  EXPECT_EQ(run.tracer.span_count("unit"), run.report.units_total);
  EXPECT_GT(run.tracer.span_count("flow"), 0u);
  EXPECT_GT(run.tracer.span_count("exec"), 0u);
  // Flat CSV: exactly one row per recorded event plus the header.
  EXPECT_EQ(count_lines(run.tracer.csv()), 1 + run.tracer.event_count());
}

TEST(TracedFig6a, ChromeJsonParsesWithAllEventsPresent) {
  const auto& run = traced_fig6a();
  const std::string json = run.tracer.chrome_json();
  JsonParser parser(json);
  const Json doc = parser.parse();
  ASSERT_FALSE(parser.failed());
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);

  std::size_t spans = 0, instants = 0, metadata = 0;
  for (const auto& ev : events.array) {
    ASSERT_EQ(ev.type, Json::Type::kObject);
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    EXPECT_TRUE(ev.has("name"));
    EXPECT_TRUE(ev.has("ts"));
    EXPECT_TRUE(ev.has("pid"));
    EXPECT_TRUE(ev.has("tid"));
    if (ph == "X") {
      ++spans;
      EXPECT_GE(ev.at("dur").number, 0.0);
    } else {
      EXPECT_EQ(ph, "i");
      ++instants;
    }
  }
  EXPECT_GT(metadata, 0u);  // process_name records for the track groups
  EXPECT_EQ(spans + instants, run.tracer.event_count());
}

TEST(TracedFig6a, StagingAndExecSpansNestInsideTheirUnitSpan) {
  const auto& run = traced_fig6a();
  const auto events = run.tracer.events();

  // Unit lifecycle spans, keyed by unit id (the tid on the unit track).
  std::map<std::uint32_t, std::pair<double, double>> unit_span;
  for (const auto& ev : events) {
    if (ev.kind == TraceEvent::Kind::kSpan && ev.cat == "unit") {
      unit_span[ev.track] = {ev.start, ev.end};
    }
  }
  ASSERT_EQ(unit_span.size(), run.report.units_total);

  constexpr double kEps = 1e-9;
  std::size_t nested = 0;
  for (const auto& ev : events) {
    if (ev.kind != TraceEvent::Kind::kSpan) continue;
    if (ev.cat != "staging" && ev.cat != "exec" && ev.cat != "pending") continue;
    const auto unit_arg =
        std::find_if(ev.args.begin(), ev.args.end(),
                     [](const TraceArg& a) { return a.key == "unit"; });
    if (unit_arg == ev.args.end()) continue;  // node-level staging: no unit
    const auto id = static_cast<std::uint32_t>(std::stoul(unit_arg->value));
    ASSERT_TRUE(unit_span.count(id)) << ev.cat << " span names unknown unit " << id;
    const auto [lo, hi] = unit_span[id];
    EXPECT_GE(ev.start, lo - kEps) << ev.cat << " span starts before unit " << id;
    EXPECT_LE(ev.end, hi + kEps) << ev.cat << " span ends after unit " << id;
    ++nested;
  }
  EXPECT_GT(nested, 0u);
}

TEST(TracedFig6a, MetricsCoverNetworkAndRun) {
  const auto& run = traced_fig6a();
  const auto* solves = run.metrics.find_counter("net.solver_invocations");
  ASSERT_NE(solves, nullptr);
  EXPECT_GT(solves->value(), 0u);
  const auto* bytes = run.metrics.find_counter("net.bytes_moved");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value(), run.report.bytes_moved);
  const auto* transfers = run.metrics.find_counter("net.transfers");
  ASSERT_NE(transfers, nullptr);
  EXPECT_EQ(transfers->value(), run.report.transfers);

  // Event-queue activity snapshot (always counted, exported opt-in).
  const auto* scheduled = run.metrics.find_gauge("sim.events_scheduled");
  ASSERT_NE(scheduled, nullptr);
  EXPECT_GT(scheduled->value(), 0.0);
  const auto* fired = run.metrics.find_gauge("sim.events_fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_LE(fired->value(), scheduled->value());

  // fill_metrics gauges mirror the report.
  const auto* makespan = run.metrics.find_gauge("run.makespan_s");
  ASSERT_NE(makespan, nullptr);
  EXPECT_DOUBLE_EQ(makespan->value(), run.report.makespan());
  const auto* completed = run.metrics.find_gauge("run.units_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(completed->value(), static_cast<double>(run.report.units_completed));
}

TEST(TracedFig6a, TracingDoesNotPerturbTheSimulation) {
  // The same scenario untraced must land on the exact same simulated result
  // (tracing is observation only — measurement must not change the system).
  workload::PaperScenarioOptions opt;
  opt.scale = 0.02;
  const auto untraced = workload::run_als(core::PlacementStrategy::kRealTime, opt);
  const auto& traced = traced_fig6a().report;
  EXPECT_DOUBLE_EQ(untraced.makespan(), traced.makespan());
  EXPECT_DOUBLE_EQ(untraced.transfer_busy(), traced.transfer_busy());
  EXPECT_DOUBLE_EQ(untraced.compute_busy(), traced.compute_busy());
  EXPECT_EQ(untraced.bytes_moved, traced.bytes_moved);
  EXPECT_EQ(untraced.transfers, traced.transfers);
}

TEST(TracedFig6a, ExportersWriteFiles) {
  namespace fs = std::filesystem;
  const auto& run = traced_fig6a();
  const fs::path dir = fs::path(testing::TempDir()) / "frieda_obs_export";
  fs::create_directories(dir);
  const auto json_path = (dir / "trace.json").string();
  const auto csv_path = (dir / "trace.csv").string();
  const auto metrics_path = (dir / "metrics.csv").string();
  run.tracer.write_chrome_json(json_path);
  run.tracer.write_csv(csv_path);
  run.metrics.write_csv(metrics_path);
  EXPECT_GT(fs::file_size(json_path), 0u);
  EXPECT_GT(fs::file_size(csv_path), 0u);
  EXPECT_GT(fs::file_size(metrics_path), 0u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Run counter export: one registry shared by three fault-driven runs, pinned
// to its exact csv() text so any change to what a run counts, or to when it
// writes the counts, shows up as a diff.
// ---------------------------------------------------------------------------

struct FaultRun {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::unique_ptr<workload::SyntheticModel> app;
  std::vector<core::WorkUnit> units;
  std::vector<cluster::VmId> vms;
};

FaultRun make_fault_run(std::uint64_t seed, Bytes disk, workload::SyntheticParams params) {
  FaultRun s;
  s.sim = std::make_unique<sim::Simulation>(seed);
  s.cluster = std::make_unique<cluster::VirtualCluster>(*s.sim);
  auto type = cluster::c1_xlarge();
  type.boot_time = 0.0;
  type.cores = 2;
  type.disk_capacity = disk;
  s.vms = s.cluster->provision(type, 2);
  s.app = std::make_unique<workload::SyntheticModel>(params);
  s.units =
      core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile, s.app->catalog());
  return s;
}

workload::SyntheticParams fault_load(Bytes file_bytes, double task_seconds) {
  workload::SyntheticParams params;
  params.file_count = 30;
  params.mean_file_bytes = file_bytes;
  params.mean_task_seconds = task_seconds;
  params.output_bytes = 0;
  return params;
}

TEST(RunMetricsExport, FaultRunsExportPinnedCounters) {
  MetricsRegistry m;
  core::RunOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.metrics = &m;
  const core::CommandTemplate cmd("app $inp1");

  {  // A VM dies mid-transfer: isolations, a failed transfer, requeues.
    auto s = make_fault_run(7, 100 * GiB, fault_load(15 * MB, 2.0));
    auto ropt = opt;
    ropt.requeue_on_failure = true;
    core::FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, cmd, ropt);
    cluster::FailureInjector injector(*s.cluster);
    injector.schedule(s.vms[1], 5.0);
    EXPECT_TRUE(run.run().all_completed());
  }
  {  // A disk that holds ~4 of 30 inputs: evictions.
    auto s = make_fault_run(21, 40 * MB, fault_load(10 * MB, 1.0));
    core::FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, cmd, opt);
    EXPECT_TRUE(run.run().all_completed());
  }
  {  // The master dies mid-staging: a master crash and its requeues.
    auto s = make_fault_run(5, 100 * GiB, fault_load(15 * MB, 2.0));
    core::FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, cmd, opt);
    s.sim->schedule_at(20.0, [&run] { run.crash_master(15.0); });
    EXPECT_TRUE(run.run().all_completed());
  }

  // The sim.* gauges are the last run's snapshot; every counter sums all
  // three runs.
  EXPECT_EQ(m.csv(),
            "name,kind,value\n"
            "frieda.template_patches,counter,0\n"
            "net.bytes_moved,counter,1291200000\n"
            "net.flows_coalesced,counter,249\n"
            "net.solver_dirty_classes,counter,160\n"
            "net.solver_full_solves,counter,4\n"
            "net.solver_invocations,counter,110\n"
            "net.transfers,counter,98\n"
            "net.transfers_failed,counter,4\n"
            "run.evictions,counter,22\n"
            "run.isolations,counter,2\n"
            "run.master_crashes,counter,1\n"
            "run.requeues,counter,12\n"
            "sim.events_cancelled,gauge,0\n"
            "sim.events_fired,gauge,263\n"
            "sim.events_scheduled,gauge,263\n");
}

// ---------------------------------------------------------------------------
// Threaded runtime tracing (wall-clock timestamps)
// ---------------------------------------------------------------------------

TEST(RtTracing, ThreadedRunRecordsUnitAndExecSpans) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "frieda_obs_rt";
  fs::remove_all(root);
  rt::make_dataset((root / "source").string(), 6, 32 * KiB, 5);

  Tracer tracer;
  rt::RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 2;
  opt.staging_root = (root / "staging").string();
  opt.tracer = &tracer;
  rt::RtEngine engine((root / "source").string(), opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const std::size_t n = units.size();
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("app $inp1"),
      [](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
        return true;
      });
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(tracer.span_count("unit"), n);
  EXPECT_EQ(tracer.span_count("exec"), n);
  for (const auto& ev : tracer.events()) {
    EXPECT_GE(ev.start, 0.0);  // wall offsets since run start
    EXPECT_GE(ev.end, ev.start);
  }

  MetricsRegistry metrics;
  report.fill_metrics(metrics);
  const auto* completed = metrics.find_gauge("rt.units_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(completed->value(), static_cast<double>(n));
  fs::remove_all(root);
}

}  // namespace
}  // namespace frieda::obs
