// Paper evaluation scenarios (Section IV.A), shared by tests and benches.
//
// Cluster: 4 x c1.xlarge worker VMs (4 virtual cores, 4 GB) plus the data
// source node, with 100 Mbps provisioned NICs.  Workloads: the ALS image
// comparison (1250 images, pairwise-adjacent) and BLAST (7500 sequences +
// common database, single-file grouping).  `scale` shrinks the datasets
// proportionally so unit tests run the same code paths quickly.
#pragma once

#include <functional>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "frieda/report.hpp"
#include "frieda/run.hpp"
#include "workload/arrivals.hpp"
#include "workload/blast.hpp"
#include "workload/image_compare.hpp"

namespace frieda::workload {

/// Open-loop service-mode knobs for a paper scenario: when enabled, units
/// are injected by the configured arrival process instead of being queued
/// up front, and the run reports latency percentiles + sustained throughput.
struct ServiceOptions {
  bool open_loop = false;                  ///< off = classic closed batch
  ArrivalConfig arrivals;                  ///< arrival process (open-loop only)
  core::ElasticPolicy elastic;             ///< reactive scale-out/in policy
};

/// Knobs shared by every paper scenario.
struct PaperScenarioOptions {
  std::size_t worker_vms = 4;      ///< paper: 4 instances
  unsigned cores_per_vm = 4;       ///< paper: c1.xlarge, 4 virtual cores
  Bandwidth nic = mbps(100);       ///< paper: provisioned 100 Mbps
  bool multicore = true;           ///< one program instance per core
  double scale = 1.0;              ///< dataset scale factor (1.0 = paper size)
  std::uint64_t seed = 2012;       ///< simulation seed
  int prefetch = 1;                ///< real-time pipelining depth
  bool requeue_on_failure = false;
  obs::Tracer* tracer = nullptr;   ///< opt-in run tracing (forwarded to
                                   ///< RunOptions::tracer)
  obs::MetricsRegistry* metrics = nullptr;  ///< opt-in metrics registry
  obs::TelemetryProbe* telemetry = nullptr;  ///< opt-in live telemetry probe
                                   ///< (forwarded to RunOptions::telemetry)
  ServiceOptions service;          ///< open-loop arrivals + elasticity policy
  bool use_execution_templates = true;  ///< consult the process-global
                                   ///< core::TemplateStore for cached
                                   ///< control-plane decisions (see
                                   ///< frieda/template.hpp).  Instantiating
                                   ///< from a template is value-identical to
                                   ///< a from-scratch build (audited under
                                   ///< FRIEDA_TEMPLATE_AUDIT), so this knob
                                   ///< is not part of the fingerprint.

  /// Hook called after the run is constructed and before it executes —
  /// benches use it to schedule failures or elasticity.
  std::function<void(sim::Simulation&, cluster::VirtualCluster&, core::FriedaRun&)> arrange;
};

/// True when a run of these options is a pure function of the fields below —
/// i.e. it can be memoized by fingerprint.  An `arrange` hook changes the run
/// in ways the fields don't capture, and tracer/metrics attachments are side
/// effects a cached result would silently skip, so any of them disqualifies
/// the options.
bool fingerprintable(const PaperScenarioOptions& opt);

/// Mix every behavior-affecting field of `opt` into `h`, in a fixed order
/// (the in-process result-cache key encoding).
/// Precondition: fingerprintable(opt).
void hash_options(StableHasher& h, const PaperScenarioOptions& opt);

/// True when a run of these options may use execution templates: only an
/// `arrange` hook disqualifies (it can mutate the cluster/run in ways the
/// captured decisions don't cover).  Weaker than fingerprintable():
/// tracer/metrics attachments are fine here because a templated run still
/// executes (and traces) everything — only the control-plane *setup* is
/// served from the cache, value-identically.
bool templatable(const PaperScenarioOptions& opt);

/// Execution-template key for a paper scenario (see frieda/template.hpp):
/// a stable hash of the *structural* fields only — app kind, placement
/// strategy, dataset scale, NIC class.  The patchable fields
/// (seed, VM count/cores, prefetch, requeue, arrival config) are
/// deliberately excluded, so reruns that differ only in them share one
/// template; a strategy or topology change yields a new key (full rebuild).
/// Contrast exp::scenario_fingerprint, which hashes *every* field and keys
/// whole-run result memoization.
Fingerprint template_fingerprint(const char* app, core::PlacementStrategy strategy,
                                 const PaperScenarioOptions& opt);

/// Identity of one generated arrival schedule: (config, count), nonzero.
/// Templates store this alongside the captured offsets; an instantiation
/// whose key matches reuses the schedule, anything else regenerates (a
/// patch).  0 is reserved for "closed batch, no schedule".
std::uint64_t arrival_schedule_key(const ArrivalConfig& config, std::size_t count);

/// Estimated work-unit count of the scenario these options describe for
/// `app` ("als" or "blast") — the base dataset size scaled by `opt.scale`,
/// mapped through the app's partition scheme.  This is the numerator of the
/// sweep engine's relative cost estimate (see exp::scenario_cost).
double estimate_units(const char* app, const PaperScenarioOptions& opt);

/// Build the ALS dataset/model these options describe.  Constructing the
/// model (catalog generation, per-file size draws) is the fixed per-run setup
/// cost; it depends only on `opt.scale`, so runs that share a scale can share
/// one instance.  Models are immutable after construction and safe to share
/// by const reference across concurrently executing runs (exp::SweepRunner
/// jobs).
ImageCompareModel make_als_model(const PaperScenarioOptions& opt);

/// Build the BLAST dataset/model (see make_als_model for sharing rules;
/// BLAST additionally pre-draws the per-sequence search costs).
BlastModel make_blast_model(const PaperScenarioOptions& opt);

/// Run the ALS image-comparison workload with the given strategy.
core::RunReport run_als(core::PlacementStrategy strategy, const PaperScenarioOptions& opt = {});

/// Same, over a shared prebuilt model (must match `opt.scale`).
core::RunReport run_als(core::PlacementStrategy strategy, const ImageCompareModel& app,
                        const PaperScenarioOptions& opt);

/// Run the BLAST workload with the given strategy.
core::RunReport run_blast(core::PlacementStrategy strategy,
                          const PaperScenarioOptions& opt = {});

/// Same, over a shared prebuilt model (must match `opt.scale`).
core::RunReport run_blast(core::PlacementStrategy strategy, const BlastModel& app,
                          const PaperScenarioOptions& opt);

/// Sequential baselines of Table I: one VM, one program instance, local data.
core::RunReport run_als_sequential(const PaperScenarioOptions& opt = {});
core::RunReport run_als_sequential(const ImageCompareModel& app,
                                   const PaperScenarioOptions& opt);
core::RunReport run_blast_sequential(const PaperScenarioOptions& opt = {});
core::RunReport run_blast_sequential(const BlastModel& app, const PaperScenarioOptions& opt);

}  // namespace frieda::workload
