// Cost estimates and cache keys for scenario sweep jobs.
//
// Two per-job annotations drive the scheduler (see docs/performance.md,
// "Memoization and cost-aware scheduling"):
//
//   * `scenario_fingerprint` — the memoization key: a stable 128-bit hash of
//     (app kind, execution mode, every PaperScenarioOptions field).  Returns
//     nullopt for configurations that are not a pure function of those
//     fields (arrange/tracer/metrics hooks), which keeps them out of the
//     result cache entirely.
//   * `scenario_cost` — a *relative* wall-time estimate used for
//     longest-first dispatch: estimated work units (dataset size × scale
//     through the app's partition scheme) divided by the number of program
//     instance slots that will chew on them.  Only the ordering matters;
//     the unit is arbitrary.
#pragma once

#include <optional>

#include "common/hash.hpp"
#include "workload/scenarios.hpp"

namespace frieda::exp {

/// Memoization key for a paper-scenario job, or nullopt when the options
/// carry hooks that make the run non-memoizable.  `mode` is the placement
/// strategy name, or "sequential" for the Table-I baselines (which ignore
/// the VM-shape fields, so they hash under their own mode string).
std::optional<Fingerprint> scenario_fingerprint(const char* app, const char* mode,
                                                const workload::PaperScenarioOptions& opt);

/// Relative cost estimate of a paper-scenario job: estimated units over
/// available program-instance slots (1 for the sequential baselines).
double scenario_cost(const char* app, bool sequential,
                     const workload::PaperScenarioOptions& opt);

}  // namespace frieda::exp
