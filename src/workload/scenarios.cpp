#include "workload/scenarios.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "frieda/template.hpp"
#include "obs/metrics.hpp"
#include "workload/calibration.hpp"

namespace frieda::workload {

namespace {

ImageCompareParams als_params(const PaperScenarioOptions& opt) {
  auto p = ImageCompareParams::paper();
  p.image_count =
      std::max<std::size_t>(2, static_cast<std::size_t>(p.image_count * opt.scale));
  if (p.image_count % 2) --p.image_count;  // pairwise-adjacent wants an even count
  return p;
}

BlastParams blast_params(const PaperScenarioOptions& opt) {
  auto p = BlastParams::paper();
  p.sequence_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(p.sequence_count * opt.scale));
  // Scale the shared database too, so small test runs stay balanced the same
  // way the full run is.
  p.database_bytes = static_cast<Bytes>(static_cast<double>(p.database_bytes) * opt.scale);
  return p;
}

struct Built {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::vector<cluster::VmId> vms;
};

Built build_cluster(const PaperScenarioOptions& opt, std::size_t vm_count, unsigned cores,
                    bool with_storage = false) {
  Built b;
  b.sim = std::make_unique<sim::Simulation>(opt.seed);
  cluster::ClusterOptions copts;
  copts.source_nic_up = opt.nic;
  copts.source_nic_down = opt.nic;
  copts.with_storage_server = with_storage;
  copts.storage_nic = opt.nic;  // the networked disk shares the same fabric
  b.cluster = std::make_unique<cluster::VirtualCluster>(*b.sim, copts);
  auto type = cluster::c1_xlarge();
  type.cores = cores;
  type.nic_up = opt.nic;
  type.nic_down = opt.nic;
  type.boot_time = 0.0;  // the paper measures application time, not boot
  b.vms = b.cluster->provision(type, vm_count);
  return b;
}

core::RunReport execute(Built& b, const core::AppModel& app,
                        const storage::FileCatalog& catalog, core::PartitionScheme scheme,
                        const core::CommandTemplate& command,
                        core::PlacementStrategy strategy, const PaperScenarioOptions& opt,
                        bool multicore, const char* app_kind) {
  auto& store = core::TemplateStore::global();
  const bool use_templates = opt.use_execution_templates && templatable(opt);
  const bool audit = use_templates && store.differential_check();

  std::shared_ptr<const core::ExecutionTemplate> tmpl;
  std::optional<Fingerprint> key;
  if (use_templates) {
    key = template_fingerprint(app_kind, strategy, opt);
    tmpl = store.lookup(*key).value_or(nullptr);
  }

  // Program-instance slots this run will fork — the assignment table shape.
  std::size_t slots = 0;
  for (const auto vm : b.vms) slots += multicore ? b.cluster->vm(vm).type().cores : 1u;

  std::vector<core::WorkUnit> units;
  if (tmpl != nullptr) {
    units = tmpl->units();  // instantiate: partition list is structural
    if (audit) {
      FRIEDA_CHECK(core::PartitionGenerator::generate(scheme, catalog) == units,
                   "template audit: cached partition list diverged from a fresh "
                   "generation");
    }
    if (opt.metrics) opt.metrics->counter("frieda.template_hits").inc();
  } else {
    units = core::PartitionGenerator::generate(scheme, catalog);
  }

  core::RunOptions ropt;
  ropt.strategy = strategy;
  ropt.scheme = scheme;
  ropt.multicore = multicore;
  ropt.prefetch = opt.prefetch;
  ropt.requeue_on_failure = opt.requeue_on_failure;
  ropt.tracer = opt.tracer;
  ropt.metrics = opt.metrics;
  ropt.telemetry = opt.telemetry;
  if (opt.service.open_loop) {
    const auto akey = arrival_schedule_key(opt.service.arrivals, units.size());
    if (tmpl != nullptr && tmpl->arrival_key() == akey) {
      ropt.arrivals = tmpl->arrivals();  // same process, same schedule
      if (audit) {
        FRIEDA_CHECK(generate_arrivals(opt.service.arrivals, units.size()) == ropt.arrivals,
                     "template audit: cached arrival schedule diverged from a "
                     "fresh generation");
      }
    } else {
      ropt.arrivals = generate_arrivals(opt.service.arrivals, units.size());
      if (tmpl != nullptr) store.note_patch();  // arrival-config delta
    }
    ropt.elastic_policy = opt.service.elastic;
  }

  if (tmpl == nullptr && key.has_value()) {
    // First run of this scenario shape: capture + publish the template.
    const bool inputs_staged = strategy != core::PlacementStrategy::kRemoteRead &&
                               strategy != core::PlacementStrategy::kSharedVolume;
    const std::uint64_t akey =
        opt.service.open_loop ? arrival_schedule_key(opt.service.arrivals, units.size())
                              : 0;
    tmpl = core::ExecutionTemplate::capture(units, command, catalog, ropt.staging_dir,
                                            inputs_staged, ropt.assignment, slots, akey,
                                            ropt.arrivals);
    store.note_build();
    store.insert(*key, tmpl);
    if (opt.metrics) opt.metrics->counter("frieda.template_builds").inc();
  } else if (tmpl != nullptr && (tmpl->assignment_workers() != slots ||
                                 tmpl->assignment_policy() != ropt.assignment)) {
    store.note_patch();  // worker-shape delta: the run recomputes the table
  }
  ropt.exec_template = tmpl;

  core::FriedaRun run(*b.cluster, catalog, std::move(units), app, command, ropt);
  if (strategy == core::PlacementStrategy::kPrePartitionLocal) {
    run.pre_place_partitions(b.vms);
  }
  if (opt.arrange) opt.arrange(*b.sim, *b.cluster, run);
  return run.run();
}

}  // namespace

bool fingerprintable(const PaperScenarioOptions& opt) {
  return !opt.arrange && opt.tracer == nullptr && opt.metrics == nullptr &&
         opt.telemetry == nullptr;
}

bool templatable(const PaperScenarioOptions& opt) { return !opt.arrange; }

Fingerprint template_fingerprint(const char* app, core::PlacementStrategy strategy,
                                 const PaperScenarioOptions& opt) {
  StableHasher h;
  // Versioned salt + structural fields only.  The catalog (and therefore the
  // partition list, command bindings, and size-balanced assignments) is a
  // pure function of (app, scale); the strategy picks the staging decision
  // baked into the prototypes; the NIC stands in for the topology class.
  // Everything else is patchable at instantiation time — see the table in
  // frieda/template.hpp.
  h.mix_str("frieda-template-v1")
      .mix_str(app)
      .mix_str(core::to_string(strategy))
      .mix_f64(opt.scale)
      .mix_f64(opt.nic);
  return h.digest();
}

std::uint64_t arrival_schedule_key(const ArrivalConfig& config, std::size_t count) {
  StableHasher h;
  h.mix_str("frieda-arrivals-v1")
      .mix_u64(static_cast<std::uint64_t>(config.kind))
      .mix_f64(config.rate)
      .mix_f64(config.burst_factor)
      .mix_f64(config.burst_fraction)
      .mix_f64(config.period_s)
      .mix_u64(config.seed)
      .mix_u64(count);
  const auto d = h.digest();
  return (d.hi ^ d.lo) | 1;  // nonzero: 0 is reserved for "closed batch"
}

void hash_options(StableHasher& h, const PaperScenarioOptions& opt) {
  FRIEDA_CHECK(fingerprintable(opt),
               "options with arrange/tracer/metrics/telemetry hooks cannot be fingerprinted");
  // Fixed field order — the in-process result-cache key encoding.  When a
  // field is added to PaperScenarioOptions, mix it here: the key never
  // leaves the process, so changing every fingerprint is fine, but
  // *omitting* a behavior-affecting field is not.
  h.mix_u64(opt.worker_vms)
      .mix_u64(opt.cores_per_vm)
      .mix_f64(opt.nic)
      .mix_bool(opt.multicore)
      .mix_f64(opt.scale)
      .mix_u64(opt.seed)
      .mix_i64(opt.prefetch)
      .mix_bool(opt.requeue_on_failure);
  // use_execution_templates is intentionally absent: a templated run is
  // value-identical to a from-scratch run (audited under
  // FRIEDA_TEMPLATE_AUDIT), so the knob cannot affect any result.
  if (opt.service.open_loop) {
    // Appended for the service mode; closed-batch fingerprints are unchanged.
    const auto& ac = opt.service.arrivals;
    const auto& ep = opt.service.elastic;
    h.mix_bool(true)
        .mix_u64(static_cast<std::uint64_t>(ac.kind))
        .mix_f64(ac.rate)
        .mix_f64(ac.burst_factor)
        .mix_f64(ac.burst_fraction)
        .mix_f64(ac.period_s)
        .mix_u64(ac.seed)
        .mix_bool(ep.enabled)
        .mix_u64(ep.scale_out_depth)
        .mix_u64(ep.scale_in_depth)
        .mix_f64(ep.check_interval)
        .mix_i64(ep.hysteresis)
        .mix_u64(ep.max_extra_vms);
  }
}

double estimate_units(const char* app, const PaperScenarioOptions& opt) {
  const std::string kind(app);
  if (kind == "als") {
    // Pairwise-adjacent grouping: two images per unit.
    return static_cast<double>(als_params(opt).image_count) / 2.0;
  }
  if (kind == "blast") {
    // Single-file grouping: one sequence per unit.
    return static_cast<double>(blast_params(opt).sequence_count);
  }
  FRIEDA_CHECK(false, "estimate_units: unknown app kind '" << kind << "'");
  return 0.0;
}

ImageCompareModel make_als_model(const PaperScenarioOptions& opt) {
  return ImageCompareModel(als_params(opt));
}

BlastModel make_blast_model(const PaperScenarioOptions& opt) {
  return BlastModel(blast_params(opt));
}

core::RunReport run_als(core::PlacementStrategy strategy, const ImageCompareModel& app,
                        const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, opt.worker_vms, opt.cores_per_vm,
                         strategy == core::PlacementStrategy::kSharedVolume);
  return execute(b, app, app.catalog(), core::PartitionScheme::kPairwiseAdjacent,
                 core::CommandTemplate("compare_images $inp1 $inp2"), strategy, opt,
                 opt.multicore, "als");
}

core::RunReport run_als(core::PlacementStrategy strategy, const PaperScenarioOptions& opt) {
  return run_als(strategy, make_als_model(opt), opt);
}

core::RunReport run_blast(core::PlacementStrategy strategy, const BlastModel& app,
                          const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, opt.worker_vms, opt.cores_per_vm,
                         strategy == core::PlacementStrategy::kSharedVolume);
  return execute(b, app, app.catalog(), core::PartitionScheme::kSingleFile,
                 core::CommandTemplate("blastall -p blastp -d /data/db $inp1"), strategy, opt,
                 opt.multicore, "blast");
}

core::RunReport run_blast(core::PlacementStrategy strategy, const PaperScenarioOptions& opt) {
  return run_blast(strategy, make_blast_model(opt), opt);
}

core::RunReport run_als_sequential(const ImageCompareModel& app,
                                   const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, 1, 1);
  // Sequential baseline: one VM, one program instance, data already local.
  return execute(b, app, app.catalog(), core::PartitionScheme::kPairwiseAdjacent,
                 core::CommandTemplate("compare_images $inp1 $inp2"),
                 core::PlacementStrategy::kPrePartitionLocal, opt, /*multicore=*/false,
                 "als");
}

core::RunReport run_als_sequential(const PaperScenarioOptions& opt) {
  return run_als_sequential(make_als_model(opt), opt);
}

core::RunReport run_blast_sequential(const BlastModel& app, const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, 1, 1);
  return execute(b, app, app.catalog(), core::PartitionScheme::kSingleFile,
                 core::CommandTemplate("blastall -p blastp -d /data/db $inp1"),
                 core::PlacementStrategy::kPrePartitionLocal, opt, /*multicore=*/false,
                 "blast");
}

core::RunReport run_blast_sequential(const PaperScenarioOptions& opt) {
  return run_blast_sequential(make_blast_model(opt), opt);
}

}  // namespace frieda::workload
