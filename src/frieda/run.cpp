#include "frieda/run.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"
#include "obs/metrics.hpp"

namespace frieda::core {

FriedaRun::FriedaRun(cluster::VirtualCluster& cluster, const storage::FileCatalog& catalog,
                     std::vector<WorkUnit> units, const AppModel& app, CommandTemplate command,
                     RunOptions options)
    : cluster_(cluster),
      sim_(cluster.simulation()),
      catalog_(catalog),
      units_(std::move(units)),
      app_(app),
      command_(std::move(command)),
      options_(std::move(options)),
      initial_vms_(cluster.all_vms()),
      inbox_(sim_),
      events_(sim_),
      tap_(options_.tracer, options_.telemetry) {
  FRIEDA_CHECK(!units_.empty(), "run needs at least one work unit");
  FRIEDA_CHECK(!initial_vms_.empty(), "run needs at least one provisioned VM");
  unit_state_.resize(units_.size());
  for (std::size_t i = 0; i < units_.size(); ++i) {
    FRIEDA_CHECK(units_[i].id == i, "work unit ids must be dense and ordered");
    FRIEDA_CHECK(command_.accepts(units_[i]),
                 "command template arity " << command_.input_arity()
                                           << " does not match unit " << i << " with "
                                           << units_[i].inputs.size() << " inputs");
    unit_state_[i].unit = units_[i].id;
  }

  if (open_loop()) {
    FRIEDA_CHECK(options_.arrivals.size() == units_.size(),
                 "open-loop mode needs one arrival offset per unit ("
                     << options_.arrivals.size() << " offsets for " << units_.size()
                     << " units)");
    FRIEDA_CHECK(options_.strategy == PlacementStrategy::kRealTime || streams_inputs(),
                 "open-loop mode requires a queue-fed strategy "
                 "(real-time, remote-read, or shared-volume)");
    SimTime prev = 0.0;
    for (const auto t : options_.arrivals) {
      FRIEDA_CHECK(t >= prev, "arrival offsets must be ascending and >= 0");
      prev = t;
    }
  }
  const auto& ep = options_.elastic_policy;
  if (ep.enabled) {
    FRIEDA_CHECK(open_loop(), "the elasticity policy needs open-loop arrivals");
    FRIEDA_CHECK(ep.scale_in_depth < ep.scale_out_depth,
                 "elastic policy: scale_in_depth must be below scale_out_depth");
    FRIEDA_CHECK(ep.check_interval > 0.0, "elastic policy: check_interval must be > 0");
    FRIEDA_CHECK(ep.hysteresis >= 1, "elastic policy: hysteresis must be >= 1");
  }

  unit_hold_.resize(units_.size());

  // The catalog's files live in the source node's input directory unless
  // the caller says otherwise (workflow stages seed replicas instead).
  // With the shared-volume strategy they live on the volume server.
  if (options_.inputs_at_source) {
    auto home = cluster_.source_node();
    if (options_.strategy == PlacementStrategy::kSharedVolume) {
      const auto storage = cluster_.storage_node();
      FRIEDA_CHECK(storage.has_value(),
                   "shared-volume strategy needs ClusterOptions::with_storage_server");
      home = *storage;
    }
    for (const auto& f : catalog_.files()) replicas_.add(f.id, home);
  }

  // Failure and boot notifications flow to the controller (Fig. 4: failed
  // workers are reported to the controller, which initiates remediation).
  failure_token_ = cluster_.on_failure([this](cluster::VmId vm) {
    replicas_.drop_node(cluster_.vm(vm).node());  // transient storage is gone
    events_.send(EvVmFailed{vm});
  });
  running_token_ =
      cluster_.on_running([this](cluster::VmId vm) { events_.send(EvVmRunning{vm}); });

  tap_.units_born(units_.size(), 0.0);

  tmpl_ = options_.exec_template.get();
  if (tmpl_ != nullptr) {
    template_audit_ = TemplateStore::global().differential_check();
    FRIEDA_CHECK(tmpl_->units().size() == units_.size(),
                 "execution template covers " << tmpl_->units().size()
                                              << " units but the run has " << units_.size());
    if (template_audit_) {
      FRIEDA_CHECK(partition_signature(tmpl_->units()) == partition_signature(units_),
                   "template audit: the run's partition list diverged from the "
                   "captured template");
    }
  }
}

FriedaRun::~FriedaRun() {
  cluster_.remove_observer(failure_token_);
  cluster_.remove_observer(running_token_);
}

unsigned FriedaRun::workers_per_vm(cluster::VmId vm) const {
  return options_.multicore ? cluster_.vm(vm).type().cores : 1u;
}

// ---------------------------------------------------------------------------
// Execution-template instantiation (see template.hpp)
// ---------------------------------------------------------------------------

std::vector<std::vector<WorkUnitId>> FriedaRun::plan_assignment(std::size_t workers) {
  ++cp_instantiations_;
  if (tmpl_ != nullptr && tmpl_->assignment_policy() == options_.assignment &&
      tmpl_->assignment_workers() == workers) {
    if (template_audit_) {
      const auto fresh = assign_units(options_.assignment, units_, catalog_, workers);
      FRIEDA_CHECK(fresh == tmpl_->assignment(),
                   "template audit: captured assignment table diverged from a "
                   "fresh computation for "
                       << workers << " workers");
    }
    ++cp_templated_;
    return tmpl_->assignment();
  }
  if (tmpl_ != nullptr) ++cp_patches_;  // worker-count / policy delta
  return assign_units(options_.assignment, units_, catalog_, workers);
}

AssignWork FriedaRun::make_assignment(WorkUnitId unit) {
  ++cp_instantiations_;
  const bool staged = !streams_inputs();
  if (tmpl_ != nullptr && tmpl_->inputs_staged() == staged &&
      tmpl_->staging_dir() == options_.staging_dir) {
    AssignWork work = tmpl_->prototypes()[unit];
    if (template_audit_) {
      FRIEDA_CHECK(work.unit == units_[unit] &&
                       work.command ==
                           command_.bind_unit(units_[unit], catalog_, options_.staging_dir),
                   "template audit: prototype assignment for unit "
                       << unit << " diverged from a fresh binding");
    }
    ++cp_templated_;
    return work;
  }
  if (tmpl_ != nullptr) ++cp_patches_;  // staging decision delta
  AssignWork work;
  work.unit = units_[unit];
  work.command = command_.bind_unit(units_[unit], catalog_, options_.staging_dir);
  work.inputs_staged = staged;
  return work;
}

// ---------------------------------------------------------------------------
// Pre-placement (data packaged in the VM image, or left by earlier stages)
// ---------------------------------------------------------------------------

void FriedaRun::pre_place_all_inputs(const std::vector<cluster::VmId>& vms) {
  common_preplaced_ = true;
  for (const auto vm : vms) {
    const auto node = cluster_.vm(vm).node();
    if (options_.track_disk_capacity) {
      const Bytes needed = catalog_.total_bytes() + app_.common_data_bytes();
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(needed),
                   "pre-placed dataset (" << needed << " B) does not fit on vm " << vm
                                          << "'s local disk");
    }
    for (const auto& f : catalog_.files()) replicas_.add(f.id, node);
  }
}

void FriedaRun::pre_place_partitions(const std::vector<cluster::VmId>& vms) {
  common_preplaced_ = true;
  // Reproduce the master's worker ordering: vm order x slot.
  std::vector<cluster::VmId> worker_vm;
  for (const auto vm : vms) {
    for (unsigned s = 0; s < workers_per_vm(vm); ++s) worker_vm.push_back(vm);
  }
  const auto assignment = plan_assignment(worker_vm.size());
  for (std::size_t w = 0; w < assignment.size(); ++w) {
    const auto vm = worker_vm[w];
    const auto node = cluster_.vm(vm).node();
    for (const auto u : assignment[w]) {
      for (const auto f : units_[u].inputs) {
        if (replicas_.has(f, node)) continue;
        if (options_.track_disk_capacity) {
          FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(catalog_.info(f).size),
                       "pre-placed partition does not fit on vm " << vm << "'s local disk");
        }
        replicas_.add(f, node);
      }
    }
  }
  if (options_.track_disk_capacity && app_.common_data_bytes() > 0) {
    for (const auto vm : vms) {
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(app_.common_data_bytes()),
                   "common data does not fit on vm " << vm << "'s local disk");
    }
  }
}

void FriedaRun::seed_replica(cluster::VmId vm, storage::FileId file) {
  FRIEDA_CHECK(file < catalog_.count(), "seed_replica: file id out of range");
  replicas_.add(file, cluster_.vm(vm).node());
}

void FriedaRun::pre_place_files(cluster::VmId vm, const std::vector<storage::FileId>& files) {
  const auto node = cluster_.vm(vm).node();
  for (const auto f : files) {
    if (replicas_.has(f, node)) continue;
    if (options_.track_disk_capacity) {
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(catalog_.info(f).size),
                   "pre-placed file " << f << " does not fit on vm " << vm);
    }
    replicas_.add(f, node);
  }
}

// ---------------------------------------------------------------------------
// Run + report
// ---------------------------------------------------------------------------

RunReport FriedaRun::run() {
  FRIEDA_CHECK(!ran_, "FriedaRun::run() may only be called once");
  ran_ = true;
  net_baseline_ = cluster_.network().counters();
  // The tracer may not outlive this run, but the cluster's network does:
  // detach it on every way out of run().
  struct DetachTracer {
    net::Network& network;
    ~DetachTracer() { network.set_tracer(nullptr); }
  } detach{cluster_.network()};
  detach.network.set_tracer(tap_.tracer());
  tap_.begin(sim_.now());

  sim_.spawn(master_main(), "master");
  sim_.spawn(controller_main(), "controller");
  sim_.run();

  FRIEDA_CHECK(finished_ || all_terminal(),
               "simulation drained but the run did not finish; "
               "a process deadlocked (this is a bug)");

  RunReport report;
  report.app = app_.name();
  report.strategy = to_string(options_.strategy);
  report.scheme = to_string(options_.scheme);
  report.ready_time = ready_time_;
  report.start_time = ready_time_;
  report.staging_end = std::max(staging_end_, ready_time_);
  report.end_time = end_time_;
  report.units_total = units_.size();
  for (const auto& rec : unit_state_) {
    report.units_completed += rec.status == UnitStatus::kCompleted;
    report.units_failed += rec.status == UnitStatus::kFailed;
    report.units_unprocessed += rec.status == UnitStatus::kUnprocessed;
  }
  report.units = unit_state_;
  for (const auto& ws : workers_) {
    WorkerReport wr;
    wr.worker = ws->id;
    wr.vm = ws->vm;
    wr.slot = ws->slot;
    wr.units_completed = ws->completed;
    wr.busy_seconds = ws->busy_seconds;
    wr.isolated = ws->isolated;
    wr.drained = ws->draining;
    report.workers.push_back(wr);
  }
  const net::Network::Counters net = cluster_.network().counters().since(net_baseline_);
  report.bytes_moved = net.bytes_moved;
  report.transfers = net.transfers_started;
  report.workers_isolated = isolated_count_;
  report.timeline = timeline_;
  report.open_loop = open_loop();
  report.serve_start = serve_start_;
  report.latency = latency_;
  report.scale_outs = scale_outs_;
  report.scale_ins = scale_ins_;

  // Final sample at the run's end (a no-op when a scheduled tick already
  // landed there), then the SLO targets over the recorded series.
  tap_.finish(end_time_, [this] { return telemetry_tick_now(); });
  // The anchor covers exactly the reported makespan, so the analyzer's
  // critical path and attribution windows match RunReport::makespan().
  tap_.run(ready_time_, end_time_, [&](obs::RunTap::Args& a) {
    namespace key = obs::key;
    a.add(key::kApp, app_.name())
        .add(key::kStrategy, to_string(options_.strategy))
        .add(key::kWorkers, workers_.size())
        // Solver activity and control-plane instantiations over the run
        // window, for frieda-trace's incremental-solve and template hit rates.
        .add(key::kNetSolves, net.solves)
        .add(key::kNetFullSolves, net.full_solves)
        .add(key::kNetDirtyClasses, net.dirty_classes)
        .add(key::kCpInstantiations, cp_instantiations_)
        .add(key::kCpTemplated, cp_templated_)
        .add(key::kCpPatches, cp_patches_);
    if (report.open_loop && report.latency.count() > 0) {
      // Service-mode latency summary for frieda-trace's percentile line.
      a.add(key::kLatencyP50, report.latency_p(50.0))
          .add(key::kLatencyP95, report.latency_p(95.0))
          .add(key::kLatencyP99, report.latency_p(99.0))
          .add(key::kSustainedTput, report.sustained_throughput());
    }
  });
  if (options_.metrics) {
    // Every count is written here, once, from the plain counters the run and
    // its network keep anyway.  A shared registry across sequential runs sums
    // the counters and keeps the last run's kernel activity snapshot.
    auto& m = *options_.metrics;
    m.counter("net.solver_invocations").inc(net.solves);
    m.counter("net.solver_full_solves").inc(net.full_solves);
    m.counter("net.solver_dirty_classes").inc(net.dirty_classes);
    m.counter("net.flows_coalesced").inc(net.flows_coalesced);
    m.counter("net.bytes_moved").inc(net.bytes_moved);
    m.counter("net.transfers").inc(net.transfers_finished);
    m.counter("net.transfers_failed").inc(net.transfers_failed);
    m.counter("run.requeues").inc(requeues_);
    m.counter("run.evictions").inc(evictions_);
    m.counter("run.isolations").inc(isolated_count_);
    m.counter("run.master_crashes").inc(master_crashes_);
    m.counter("frieda.template_patches").inc(cp_patches_);
    const auto& qc = sim_.event_counters();
    m.gauge("sim.events_scheduled").set(static_cast<double>(qc.scheduled));
    m.gauge("sim.events_cancelled").set(static_cast<double>(qc.cancelled));
    m.gauge("sim.events_fired").set(static_cast<double>(qc.fired));
  }
  return report;
}

}  // namespace frieda::core
