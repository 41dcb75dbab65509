#include "workload/scenario_config.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "workload/arrivals.hpp"
#include "workload/blast.hpp"
#include "workload/image_compare.hpp"
#include "workload/synthetic.hpp"

namespace frieda::workload {

namespace {

/// Parse "1@100, 2@250" into (vm, time) pairs.
std::vector<std::pair<cluster::VmId, SimTime>> parse_failures(const std::string& spec) {
  std::vector<std::pair<cluster::VmId, SimTime>> out;
  for (const auto& item : strutil::split(spec, ',')) {
    const auto trimmed = strutil::trim(item);
    if (trimmed.empty()) continue;
    const auto parts = strutil::split(trimmed, '@');
    FRIEDA_CHECK(parts.size() == 2, "events.fail item must be vm@time: '" << trimmed << "'");
    const auto vm = strutil::to_int(parts[0]);
    const auto when = strutil::to_double(parts[1]);
    FRIEDA_CHECK(vm && when && *vm >= 0 && std::isfinite(*when) && *when >= 0,
                 "malformed events.fail item '" << trimmed << "'");
    out.emplace_back(static_cast<cluster::VmId>(*vm), *when);
  }
  return out;
}

/// Read a count key.  Negative values and values `T` cannot hold are
/// rejected with an error naming the key, instead of wrapping in a cast.
template <typename T>
T get_count(const Config& config, const std::string& key, T def) {
  const std::int64_t v = config.get_int(key, static_cast<std::int64_t>(def));
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  FRIEDA_CHECK(v >= 0 && static_cast<std::uint64_t>(v) <= kMax,
               "count " << key << " must be in [0, " << kMax << "], got " << v);
  return static_cast<T>(v);
}

/// Read a real that must be finite and >= 0, or > 0 when `positive`: sizes
/// are cast to unsigned byte counts, an infinite time parks the simulation
/// clock at infinity, and two infinite NICs leave no bottleneck to fill.
double get_finite(const Config& config, const std::string& key, double def,
                  bool positive = false) {
  const double v = config.get_double(key, def);
  FRIEDA_CHECK(std::isfinite(v) && (positive ? v > 0.0 : v >= 0.0),
               "value " << key << " must be finite and " << (positive ? ">" : ">=")
                        << " 0, got " << v);
  return v;
}

}  // namespace

core::RunReport run_scenario(const Config& config) {
  // ---- cluster ----
  sim::Simulation sim(static_cast<std::uint64_t>(config.get_int("cluster.seed", 2012)));
  cluster::ClusterOptions copts;
  const double nic = get_finite(config, "cluster.nic_mbps", 100.0, true);
  copts.source_nic_up = mbps(nic);
  copts.source_nic_down = mbps(nic);
  copts.with_storage_server =
      config.get_bool("cluster.storage", false) ||
      config.get_string("run.strategy", "") == "shared-volume";
  copts.storage_nic = mbps(get_finite(config, "cluster.storage_nic_mbps", 1000.0, true));
  cluster::VirtualCluster cluster(sim, copts);

  auto type = cluster::c1_xlarge();
  type.cores = get_count(config, "cluster.cores", 4u);
  type.nic_up = mbps(nic);
  type.nic_down = mbps(nic);
  type.disk_capacity =
      static_cast<Bytes>(get_finite(config, "cluster.disk_gib", 20.0) * static_cast<double>(GiB));
  type.boot_time = get_finite(config, "cluster.boot_s", 0.0);
  const auto vms = cluster.provision(type, get_count<std::size_t>(config, "cluster.vms", 4));

  // ---- workload ----
  const auto kind = strutil::lower(config.get_string("workload.kind", "synthetic"));
  std::unique_ptr<core::AppModel> app;
  const storage::FileCatalog* catalog = nullptr;
  if (kind == "synthetic") {
    SyntheticParams params;
    params.file_count = get_count<std::size_t>(config, "workload.files", 200);
    params.mean_file_bytes =
        static_cast<Bytes>(get_finite(config, "workload.file_mb", 4.0) * 1e6);
    params.file_size_cv = get_finite(config, "workload.file_cv", 0.0);
    params.mean_task_seconds = get_finite(config, "workload.task_s", 2.0);
    params.task_cv = get_finite(config, "workload.task_cv", 0.0);
    params.common_data_bytes =
        static_cast<Bytes>(get_finite(config, "workload.common_mb", 0.0) * 1e6);
    params.output_bytes =
        static_cast<Bytes>(get_finite(config, "workload.output_kb", 0.0) * 1e3);
    params.seed = static_cast<std::uint64_t>(config.get_int("workload.seed", 3));
    auto model = std::make_unique<SyntheticModel>(params);
    catalog = &model->catalog();
    app = std::move(model);
  } else if (kind == "als") {
    auto params = ImageCompareParams::paper();
    const double scale = get_finite(config, "workload.scale", 1.0, true);
    params.image_count = std::max<std::size_t>(
        2, static_cast<std::size_t>(static_cast<double>(params.image_count) * scale));
    if (params.image_count % 2) --params.image_count;
    auto model = std::make_unique<ImageCompareModel>(params);
    catalog = &model->catalog();
    app = std::move(model);
  } else if (kind == "blast") {
    auto params = BlastParams::paper();
    const double scale = get_finite(config, "workload.scale", 1.0, true);
    params.sequence_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(params.sequence_count) * scale));
    params.database_bytes =
        static_cast<Bytes>(static_cast<double>(params.database_bytes) * scale);
    auto model = std::make_unique<BlastModel>(params);
    catalog = &model->catalog();
    app = std::move(model);
  } else {
    FRIEDA_CHECK(false, "unknown workload.kind '" << kind
                                                  << "' (synthetic | als | blast)");
  }

  // ---- run options ----
  core::RunOptions options;
  const auto strategy_name = config.get_string("run.strategy", "real-time");
  const auto strategy = core::parse_placement_strategy(strategy_name);
  FRIEDA_CHECK(strategy.has_value(), "unknown run.strategy '" << strategy_name << "'");
  options.strategy = *strategy;
  const auto scheme_name =
      config.get_string("run.scheme", kind == "als" ? "pairwise-adjacent" : "single-file");
  const auto scheme = core::parse_partition_scheme(scheme_name);
  FRIEDA_CHECK(scheme.has_value(), "unknown run.scheme '" << scheme_name << "'");
  options.scheme = *scheme;
  options.multicore = config.get_bool("run.multicore", true);
  options.requeue_on_failure = config.get_bool("run.requeue", false);
  options.prefetch = static_cast<int>(config.get_int("run.prefetch", 1));
  options.transfer_streams = get_count(config, "run.streams", 1u);
  options.locality_aware = config.get_bool("run.locality_aware", false);

  auto units = core::PartitionGenerator::generate(options.scheme, *catalog);

  // ---- service mode (open-loop arrivals + reactive elasticity) ----
  const auto arrival_name = strutil::lower(config.get_string("service.arrivals", ""));
  const auto policy = strutil::lower(config.get_string("service.elastic_policy", "fixed"));
  FRIEDA_CHECK(policy == "fixed" || policy == "reactive",
               "unknown service.elastic_policy '" << policy << "' (fixed | reactive)");
  FRIEDA_CHECK(arrival_name.empty() ? policy == "fixed" : true,
               "service.elastic_policy = reactive requires service.arrivals");
  if (!arrival_name.empty()) {
    ArrivalConfig ac;
    const auto arrival_kind = parse_arrival_kind(arrival_name);
    FRIEDA_CHECK(arrival_kind.has_value(), "unknown service.arrivals '"
                                               << arrival_name
                                               << "' (poisson | bursty | diurnal)");
    ac.kind = *arrival_kind;
    ac.rate = config.get_double("service.arrival_rate", 1.0);
    ac.burst_factor = config.get_double("service.burst_factor", 4.0);
    ac.burst_fraction = config.get_double("service.burst_fraction", 0.2);
    ac.period_s = config.get_double("service.period_s", 3600.0);
    ac.seed = static_cast<std::uint64_t>(config.get_int("service.arrival_seed", 42));
    options.arrivals = generate_arrivals(ac, units.size());

    if (policy == "reactive") {
      auto& ep = options.elastic_policy;
      ep.enabled = true;
      ep.scale_out_depth = get_count<std::size_t>(config, "service.scale_out_depth", 16);
      ep.scale_in_depth = get_count<std::size_t>(config, "service.scale_in_depth", 2);
      ep.check_interval = get_finite(config, "service.check_interval_s", 5.0);
      ep.hysteresis = get_count(config, "service.hysteresis", 3);
      ep.max_extra_vms = get_count<std::size_t>(config, "service.max_extra_vms", 4);
    }
  }

  const auto arity = units.front().inputs.size();
  const core::CommandTemplate command(
      config.get_string("run.command", arity == 1 ? "app $inp1" : "app $inp1 $inp2"));

  core::FriedaRun run(cluster, *catalog, std::move(units), *app, command, options);
  if (options.strategy == core::PlacementStrategy::kPrePartitionLocal) {
    run.pre_place_partitions(vms);
  }

  // ---- events ----
  cluster::FailureInjector injector(cluster);
  for (const auto& [vm, when] : parse_failures(config.get_string("events.fail", ""))) {
    FRIEDA_CHECK(vm < vms.size(), "events.fail references unknown vm " << vm);
    injector.schedule(vm, when);
  }
  const double add_at = get_finite(config, "events.add_vms_at", 0.0);
  const auto add_count = get_count<std::size_t>(config, "events.add_vms", 0);
  if (add_at > 0.0 && add_count > 0) {
    sim.schedule_at(add_at, [&run, type, add_count] {
      for (std::size_t i = 0; i < add_count; ++i) run.add_vm(type);
    });
  }
  const double crash_at = get_finite(config, "events.master_crash_at", 0.0);
  if (crash_at > 0.0) {
    const double recovery = get_finite(config, "events.master_recovery_s", 10.0);
    sim.schedule_at(crash_at, [&run, recovery] { run.crash_master(recovery); });
  }

  return run.run();
}

core::RunReport run_scenario_text(const std::string& text) {
  return run_scenario(Config::parse(text));
}

}  // namespace frieda::workload
