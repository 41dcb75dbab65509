// Declarative scenario runner: a whole FRIEDA experiment from a Config.
//
// The control plane of the original system was configuration-driven; this
// module gives the reproduction the same property.  An INI-style config
// describes the cluster, the workload, the data-management strategy, and
// optional failure/elasticity events; run_scenario() builds and executes it.
//
//   [cluster]                 [workload]                [run]
//   vms = 4                   kind = synthetic          strategy = real-time
//   cores = 4                 files = 200               scheme = single-file
//   nic_mbps = 100            file_mb = 4               multicore = true
//   disk_gib = 20             task_s = 2.0              requeue = false
//   boot_s = 0                task_cv = 0.5             prefetch = 1
//   seed = 2012               common_mb = 0             streams = 1
//                             output_kb = 0             locality_aware = false
//   [events]
//   fail = 1@100, 2@250        # crash vm 1 at t=100 s, vm 2 at t=250 s
//   add_vms_at = 60            # elastic scale-out time (0 = never)
//   add_vms = 2                # how many VMs join
//   master_crash_at = 0        # crash the master (0 = never)
//   master_recovery_s = 10
//
// `kind` may also be "als" or "blast" (the paper workloads), with an
// optional `scale` key.
#pragma once

#include <string>

#include "common/config.hpp"
#include "frieda/report.hpp"

namespace frieda::workload {

/// Execute the configured scenario to completion.
/// Throws FriedaError on unknown kinds/strategies/schemes or bad values,
/// including a count key (vms, cores, files, streams, add_vms, the service
/// policy's depths/hysteresis/max_extra_vms) that is negative or too large.
core::RunReport run_scenario(const Config& config);

/// Convenience: parse `text` as INI and run it.
core::RunReport run_scenario_text(const std::string& text);

}  // namespace frieda::workload
