// Adaptive strategy selection from execution history.
//
// The paper's "Intelligent" property (Section V.A): "Future work will
// investigate the ability to select the best data management strategy based
// on past executions of an application."  This module implements that
// extension: an ExecutionHistory stores per-(app, strategy) outcomes, and
// the AdaptiveSelector picks the strategy with the best expected makespan —
// falling back to a workload-shape heuristic when history is empty
// (transfer-bound apps favor locality/overlap; skewed compute favors
// real-time balancing).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "frieda/report.hpp"
#include "frieda/types.hpp"

namespace frieda::core {

/// Persistent record of past runs, keyed by application and strategy.
class ExecutionHistory {
 public:
  /// Record one finished run.
  void record(const RunReport& report);

  /// Record a raw observation (app, strategy, makespan) — used when replaying
  /// external logs.
  void record(const std::string& app, PlacementStrategy strategy, SimTime makespan);

  /// Number of observations for (app, strategy).
  std::size_t observations(const std::string& app, PlacementStrategy strategy) const;

  /// Mean makespan of past runs, if any.
  std::optional<SimTime> mean_makespan(const std::string& app,
                                       PlacementStrategy strategy) const;

  /// Apps with at least one observation.
  std::vector<std::string> known_apps() const;

  /// Serialize to a compact text form ("app|strategy|count|mean" lines)
  /// and parse it back — the controller can persist history across runs.
  /// Each line restores in O(1), whatever its count.
  std::string serialize() const;
  static ExecutionHistory deserialize(const std::string& text);

 private:
  /// Running mean of one (app, strategy): all the selector ever reads.
  struct Summary {
    std::size_t count = 0;
    SimTime mean = 0.0;
  };
  std::map<std::pair<std::string, PlacementStrategy>, Summary> stats_;
};

/// Shape summary the fallback heuristic uses when no history exists.
struct WorkloadShape {
  Bytes bytes_per_unit = 0;       ///< mean input bytes per work unit
  SimTime seconds_per_unit = 0.0; ///< mean compute seconds per work unit
  double cost_cv = 0.0;           ///< task-cost skew
  Bandwidth staging_bandwidth = 0;///< master NIC (bytes/s)
  unsigned total_cores = 1;
  bool data_already_local = false;///< replicas pre-seeded on workers
  Bytes local_disk_capacity = 0;  ///< per-VM disk budget (0 = plentiful)
  Bytes bytes_per_node_share = 0; ///< dataset share a node must hold
};

/// Picks a placement strategy for the next run.
class AdaptiveSelector {
 public:
  /// Construct over (possibly empty) history.
  explicit AdaptiveSelector(const ExecutionHistory& history) : history_(history) {}

  /// Choose: lowest historical mean makespan when every candidate strategy
  /// has at least `min_observations` runs; otherwise the shape heuristic.
  PlacementStrategy choose(const std::string& app, const WorkloadShape& shape,
                           std::size_t min_observations = 1) const;

  /// The history-free heuristic, exposed for tests:
  /// * data already local                          -> pre-partition-local
  /// * one unit does not fit the local disk        -> remote-read (stream)
  /// * a node's share does not fit the local disk  -> real-time (eviction
  ///   keeps only the working set resident, Section III.A)
  /// * transfer-bound (stage time > compute time)  -> real-time (overlap)
  /// * skewed compute (cv > 0.25)                  -> real-time (balancing)
  /// * otherwise                                   -> pre-partition-remote
  static PlacementStrategy heuristic(const WorkloadShape& shape);

  /// Candidate strategies the selector considers.
  static const std::vector<PlacementStrategy>& candidates();

 private:
  const ExecutionHistory& history_;
};

}  // namespace frieda::core
