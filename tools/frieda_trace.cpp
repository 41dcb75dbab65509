// frieda-trace: offline trace analytics for exported Chrome-trace JSON.
//
// Loads a trace written by obs::Tracer::write_chrome_json (e.g. the
// trace_fig6a example or any driver run with tracing attached) and prints
// the time-attribution / critical-path report.
//
//   frieda-trace run.json                     # print the report
//   frieda-trace run.json --path 80           # show up to 80 path segments
//   frieda-trace run.json --gantt gantt.csv   # also export the utilization
//                                             # timeline CSV
//   frieda-trace run.json --path-csv path.csv # also export the path CSV
//   frieda-trace run.json --check             # validate analyzer invariants
//                                             # (exit 1 on violation; CI)
//   frieda-trace timeline run.json            # per-channel telemetry stats,
//                                             # ascii sparklines, SLO breaches
//   frieda-trace timeline run.json --width 80 # wider sparklines
//   frieda-trace timeline run.json --csv t.csv  # re-export the sampled
//                                             # series as channel,t_s,value
//
// --check asserts the properties the analyzer guarantees by construction:
// a non-empty critical path containing at least one real (non-wait) span,
// path durations summing to the makespan, and attribution categories
// summing to worker-seconds (percentages sum to 100 within 0.1).
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "obs/analysis.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--check] [--path N] [--gantt out.csv] "
               "[--path-csv out.csv]\n"
               "       %s timeline <trace.json> [--width N] [--csv out.csv]\n",
               argv0, argv0);
  return 2;
}

/// Strict non-negative integer parse for CLI counts (--path, --width):
/// full consumption, no sign, no range overflow, so a typo fails loudly
/// instead of silently becoming 0.
bool parse_count(const char* text, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  if (std::strchr(text, '-') != nullptr) return false;  // strtoul accepts "-1"
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  FRIEDA_CHECK(out.good(), "cannot open '" << path << "'");
  out << content;
  FRIEDA_CHECK(out.good(), "write to '" << path << "' failed");
}

/// The invariants CI asserts on every traced fig6a run.
int check(const frieda::obs::TraceAnalysis& a) {
  int failures = 0;
  const auto fail = [&failures](const char* what, double got, double want) {
    std::fprintf(stderr, "CHECK FAILED: %s (got %.9f, want %.9f)\n", what, got, want);
    ++failures;
  };

  if (!a.anchored) {
    std::fprintf(stderr, "CHECK FAILED: no run-anchor span (cat \"run\") in trace\n");
    ++failures;
  }
  if (a.makespan() <= 0.0) fail("makespan > 0", a.makespan(), 0.0);

  std::size_t real_segments = 0;
  for (const auto& seg : a.critical_path) real_segments += !seg.wait;
  if (a.critical_path.empty() || real_segments == 0) {
    std::fprintf(stderr,
                 "CHECK FAILED: critical path empty or wait-only (%zu segments, %zu real)\n",
                 a.critical_path.size(), real_segments);
    ++failures;
  }

  // Path tiles the run window: durations sum to the makespan.
  const double path_tol = 1e-6 * std::max(1.0, a.makespan());
  if (std::abs(a.critical_path_seconds() - a.makespan()) > path_tol) {
    fail("critical path sums to makespan", a.critical_path_seconds(), a.makespan());
  }

  // Attribution partitions worker-seconds: percentages sum to 100 +- 0.1.
  if (!a.workers.empty()) {
    const double pct = 100.0 * a.totals.total() / a.worker_seconds();
    if (std::abs(pct - 100.0) > 0.1) fail("attribution percentages sum to 100", pct, 100.0);
  } else {
    std::fprintf(stderr, "CHECK FAILED: no worker lanes found in trace\n");
    ++failures;
  }

  if (failures == 0) {
    std::printf("frieda-trace --check: all invariants hold (%zu events, %zu workers, "
                "makespan %.6f s)\n",
                a.events, a.workers.size(), a.makespan());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string gantt_path;
  std::string path_csv_path;
  std::string timeline_csv_path;
  std::size_t max_path_rows = 40;
  std::size_t spark_width = 60;
  bool do_check = false;
  bool do_timeline = false;

  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "timeline") == 0) {
    do_timeline = true;
    first = 2;
  }

  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (!do_timeline && std::strcmp(arg, "--check") == 0) {
      do_check = true;
    } else if (!do_timeline && std::strcmp(arg, "--path") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], max_path_rows)) {
        std::fprintf(stderr, "frieda-trace: --path expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (!do_timeline && std::strcmp(arg, "--gantt") == 0 && i + 1 < argc) {
      gantt_path = argv[++i];
    } else if (!do_timeline && std::strcmp(arg, "--path-csv") == 0 && i + 1 < argc) {
      path_csv_path = argv[++i];
    } else if (do_timeline && std::strcmp(arg, "--width") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], spark_width) || spark_width == 0) {
        std::fprintf(stderr, "frieda-trace: --width expects a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (do_timeline && std::strcmp(arg, "--csv") == 0 && i + 1 < argc) {
      timeline_csv_path = argv[++i];
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (trace_path.empty()) return usage(argv[0]);

  try {
    const auto events = frieda::obs::read_chrome_trace(trace_path);
    const auto analysis = frieda::obs::TraceAnalyzer::analyze(events);
    if (do_timeline) {
      if (!timeline_csv_path.empty()) {
        write_file(timeline_csv_path, analysis.telemetry.series.csv());
      }
      std::fputs(frieda::obs::render_timeline(analysis, spark_width).c_str(), stdout);
      return 0;
    }
    if (!gantt_path.empty()) write_file(gantt_path, frieda::obs::gantt_csv(analysis));
    if (!path_csv_path.empty()) {
      write_file(path_csv_path, frieda::obs::critical_path_csv(analysis));
    }
    if (do_check) return check(analysis);
    std::fputs(frieda::obs::render_report(analysis, max_path_rows).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frieda-trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
