#include "frieda/adaptive.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "frieda/report_io.hpp"

// History lines are '|'-delimited; app names may contain the delimiter (or a
// backslash, or a newline), so the app field is escaped on write and decoded
// on read via the shared report wire helpers (escape_field / split_escaped
// in frieda/report_io.hpp).  The remaining fields are machine-generated and
// never need escaping.

namespace frieda::core {

void ExecutionHistory::record(const RunReport& report) {
  const auto strategy = parse_placement_strategy(report.strategy);
  FRIEDA_CHECK(strategy.has_value(), "report has unknown strategy '" << report.strategy << "'");
  record(report.app, *strategy, report.makespan());
}

void ExecutionHistory::record(const std::string& app, PlacementStrategy strategy,
                              SimTime makespan) {
  auto& s = stats_[{app, strategy}];
  ++s.count;
  s.mean += (makespan - s.mean) / static_cast<double>(s.count);  // Welford's update
}

std::size_t ExecutionHistory::observations(const std::string& app,
                                           PlacementStrategy strategy) const {
  const auto it = stats_.find({app, strategy});
  return it == stats_.end() ? 0 : it->second.count;
}

std::optional<SimTime> ExecutionHistory::mean_makespan(const std::string& app,
                                                       PlacementStrategy strategy) const {
  const auto it = stats_.find({app, strategy});
  if (it == stats_.end() || it->second.count == 0) return std::nullopt;
  return it->second.mean;
}

std::vector<std::string> ExecutionHistory::known_apps() const {
  std::vector<std::string> apps;
  for (const auto& [key, value] : stats_) {
    if (apps.empty() || apps.back() != key.first) apps.push_back(key.first);
  }
  return apps;
}

std::string ExecutionHistory::serialize() const {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [key, value] : stats_) {
    // count observations are compressed to (count x mean); adequate for the
    // selector, which only consults means.
    os << escape_field(key.first) << "|" << to_string(key.second) << "|" << value.count << "|"
       << value.mean << "\n";
  }
  return os.str();
}

ExecutionHistory ExecutionHistory::deserialize(const std::string& text) {
  ExecutionHistory history;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (strutil::trim(line).empty()) continue;
    const auto parts = split_escaped(line);
    FRIEDA_CHECK(parts && parts->size() == 4, "malformed history line '" << line << "'");
    const auto& fields = *parts;
    const auto strategy = parse_placement_strategy(fields[1]);
    FRIEDA_CHECK(strategy.has_value(), "unknown strategy in history: '" << fields[1] << "'");
    const auto count = strutil::to_int(fields[2]);
    const auto mean = strutil::to_double(fields[3]);
    FRIEDA_CHECK(count && *count >= 0 && mean && std::isfinite(*mean) && *mean >= 0.0,
                 "malformed history line '" << line << "'");
    if (*count == 0) continue;  // an empty summary records nothing
    // Restore the summary in O(1); a repeated (app, strategy) line merges
    // as the count-weighted mean of both.
    auto& s = history.stats_[{fields[0], *strategy}];
    const auto n = static_cast<std::size_t>(*count);
    s.mean = s.count == 0 ? *mean
                          : s.mean + (*mean - s.mean) * (static_cast<double>(n) /
                                                         static_cast<double>(s.count + n));
    s.count += n;
  }
  return history;
}

const std::vector<PlacementStrategy>& AdaptiveSelector::candidates() {
  static const std::vector<PlacementStrategy> kCandidates = {
      PlacementStrategy::kPrePartitionRemote,
      PlacementStrategy::kRealTime,
  };
  return kCandidates;
}

PlacementStrategy AdaptiveSelector::heuristic(const WorkloadShape& shape) {
  if (shape.data_already_local) return PlacementStrategy::kPrePartitionLocal;
  if (shape.local_disk_capacity > 0) {
    // Storage selection (Section III.A): the strategy must respect the
    // limited VM-local disk.
    if (shape.bytes_per_unit > shape.local_disk_capacity) {
      return PlacementStrategy::kRemoteRead;
    }
    if (shape.bytes_per_node_share > shape.local_disk_capacity) {
      return PlacementStrategy::kRealTime;
    }
  }
  const double stage_seconds =
      shape.staging_bandwidth > 0
          ? static_cast<double>(shape.bytes_per_unit) / shape.staging_bandwidth
          : 0.0;
  const double compute_seconds_parallel =
      shape.seconds_per_unit / std::max(1u, shape.total_cores);
  if (stage_seconds > compute_seconds_parallel) return PlacementStrategy::kRealTime;
  if (shape.cost_cv > 0.25) return PlacementStrategy::kRealTime;
  return PlacementStrategy::kPrePartitionRemote;
}

PlacementStrategy AdaptiveSelector::choose(const std::string& app, const WorkloadShape& shape,
                                           std::size_t min_observations) const {
  PlacementStrategy best = PlacementStrategy::kRealTime;
  SimTime best_mean = 0.0;
  bool have_all = true;
  bool first = true;
  for (const auto candidate : candidates()) {
    if (history_.observations(app, candidate) < min_observations) {
      have_all = false;
      break;
    }
    const auto mean = *history_.mean_makespan(app, candidate);
    if (first || mean < best_mean) {
      best = candidate;
      best_mean = mean;
      first = false;
    }
  }
  if (have_all) return best;
  return heuristic(shape);
}

}  // namespace frieda::core
