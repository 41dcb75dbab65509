// Declarative experiment runner: execute a FRIEDA scenario described in an
// INI config file, with key=value command-line overrides.
//
//   run_scenario my_experiment.conf run.strategy=pre-partition-remote
//   run_scenario --demo                 # built-in demo scenario
//
// Prints the run summary and the per-unit/per-worker CSVs' first lines; see
// src/workload/scenario_config.hpp for the full key reference.  A config the
// runner rejects (unknown value, negative count, ...) prints the error and
// exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "workload/scenario_config.hpp"

using namespace frieda;

namespace {

constexpr const char* kDemo = R"(
[cluster]
vms = 4
cores = 4
nic_mbps = 100
seed = 7

[workload]
kind = synthetic
files = 120
file_mb = 6
task_s = 3
task_cv = 0.6
output_kb = 40

[run]
strategy = real-time
prefetch = 1
requeue = true

[events]
fail = 2@20
add_vms_at = 30
add_vms = 1
)";

}  // namespace

int main(int argc, char** argv) try {
  Config config;
  std::vector<std::string> overrides;
  bool have_file = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      config = Config::parse(kDemo);
      have_file = true;
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(arg);
    } else {
      config = Config::load_file(arg);
      have_file = true;
    }
  }
  if (!have_file) {
    std::fprintf(stderr,
                 "usage: run_scenario (<config-file> | --demo) [key=value ...]\n"
                 "see src/workload/scenario_config.hpp for the key reference\n");
    return 2;
  }
  config.apply_overrides(overrides);

  std::printf("effective configuration:\n%s\n", config.to_string().c_str());
  const auto report = workload::run_scenario(config);
  std::printf("%s\n", report.summary().c_str());
  return report.all_completed() ? 0 : 1;
} catch (const FriedaError& e) {
  std::fprintf(stderr, "run_scenario: %s\n", e.what());
  return 2;
}
