#include "frieda/run.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"

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
      initial_vms_(cluster.all_vms()) {
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

  handed_.assign(units_.size(), 0);
  inbox_ = std::make_unique<sim::Channel<InboxMessage>>(sim_);
  events_ = std::make_unique<sim::Channel<ControllerEvent>>(sim_);
  master_done_ = std::make_unique<sim::Signal>(sim_);

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
    events_->try_send(EvVmFailed{vm});
  });
  running_token_ =
      cluster_.on_running([this](cluster::VmId vm) { events_->try_send(EvVmRunning{vm}); });

  tracer_ = options_.tracer;
  telemetry_ = options_.telemetry;
  if (tracer_) {
    trace_born_.assign(units_.size(), 0.0);
    trace_pending_.assign(units_.size(), 0.0);
  }

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

void FriedaRun::note_template_patch() { ++cp_patches_; }

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
  if (tmpl_ != nullptr) note_template_patch();  // worker-count / policy delta
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
  if (tmpl_ != nullptr) note_template_patch();  // staging decision delta
  AssignWork work;
  work.unit = units_[unit];
  work.command = command_.bind_unit(units_[unit], catalog_, options_.staging_dir);
  work.inputs_staged = staged;
  return work;
}

// ---------------------------------------------------------------------------
// Observability taps (no-ops unless a tracer/registry was attached)
// ---------------------------------------------------------------------------

void FriedaRun::mark_pending(WorkUnitId unit) {
  if (tracer_) trace_pending_[unit] = sim_.now();
}

void FriedaRun::trace_dispatched(WorkUnitId unit, WorkerId worker) {
  if (!tracer_) return;
  const auto& rec = unit_state_[unit];
  obs::TraceEvent ev;
  ev.name = "pending unit " + std::to_string(unit);
  ev.cat = "pending";
  ev.process = obs::kUnitTrack;
  ev.track = static_cast<std::uint32_t>(unit);
  ev.start = trace_pending_[unit];
  ev.end = sim_.now();
  ev.args = {{"attempt", std::to_string(rec.attempts)},
             {"worker", std::to_string(worker)},
             {"vm", std::to_string(workers_[worker]->vm)}};
  tracer_->span(std::move(ev));
}

void FriedaRun::trace_terminal(const UnitRecord& rec) {
  if (!tracer_) return;
  obs::TraceEvent ev;
  ev.name = "unit " + std::to_string(rec.unit);
  ev.cat = "unit";
  ev.process = obs::kUnitTrack;
  ev.track = static_cast<std::uint32_t>(rec.unit);
  ev.start = trace_born_[rec.unit];
  ev.end = rec.finished;
  ev.args = {{"status", to_string(rec.status)},
             {"attempts", std::to_string(rec.attempts)}};
  if (rec.attempts > 0) {
    ev.args.push_back({"worker", std::to_string(rec.worker)});
    ev.args.push_back({"vm", std::to_string(workers_[rec.worker]->vm)});
  }
  tracer_->span(std::move(ev));
}

void FriedaRun::trace_instant(const char* name, const char* cat,
                              std::vector<std::pair<const char*, std::string>> args) {
  if (!tracer_) return;
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.process = obs::kRunTrack;
  ev.start = ev.end = sim_.now();
  ev.args.reserve(args.size());
  for (auto& [key, value] : args) ev.args.push_back({key, std::move(value)});
  tracer_->instant(std::move(ev));
}

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

std::optional<net::NodeId> FriedaRun::replica_source(storage::FileId file,
                                                     net::NodeId target) {
  const auto nodes = replicas_.nodes_with(file);
  if (nodes.empty()) return std::nullopt;
  const auto source = cluster_.source_node();
  if (std::find(nodes.begin(), nodes.end(), source) != nodes.end()) return source;
  const auto& topo = cluster_.network().topology();
  for (const auto n : nodes) {
    if (n != target && topo.site(n) == topo.site(target)) return n;
  }
  for (const auto n : nodes) {
    if (n != target) return n;
  }
  return std::nullopt;
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

cluster::VmId FriedaRun::add_vm(const cluster::InstanceType& type) {
  return cluster_.provision(type);  // EvVmRunning arrives once booted
}

void FriedaRun::crash_master(SimTime recovery_delay) {
  FRIEDA_CHECK(recovery_delay >= 0.0, "recovery delay must be >= 0");
  if (finished_ || master_down_) return;
  ++master_crashes_;
  if (tracer_) {
    trace_instant("master-crash", "protocol",
                  {{"recovery_s", std::to_string(recovery_delay)}});
  }
  master_down_ = true;
  ++master_epoch_;  // abandons every dispatch that was mid-staging
  master_recovered_ = std::make_unique<sim::Signal>(sim_);
  timeline_.record(ActivityKind::kStage, sim_.now(), sim_.now() + recovery_delay,
                   "master-down");
  FLOG(kInfo, "controller", "master failed at t=" << sim_.now() << "; restarting in "
                                                  << recovery_delay << " s");
  sim_.schedule_in(recovery_delay, [this] { recover_master(); });
}

void FriedaRun::recover_master() {
  if (finished_) return;
  master_down_ = false;
  // Resync from the controller's view: assignments that never reached a
  // worker were lost with the master and go back to the queue; everything a
  // worker already holds keeps running (the planes are decoupled).
  for (auto& rec : unit_state_) {
    if (rec.status == UnitStatus::kInFlight && !handed_[rec.unit]) {
      force_requeue(rec.unit);
    }
  }
  if (tracer_) trace_instant("master-recover", "protocol");
  FLOG(kInfo, "controller", "master recovered at t=" << sim_.now());
  master_recovered_->trigger();
  if (serving_) top_up_all();
}

void FriedaRun::force_requeue(WorkUnitId unit) {
  auto& rec = unit_state_[unit];
  if (rec.status == UnitStatus::kInFlight) {
    auto& ws = *workers_[rec.worker];
    FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
    --ws.unacked;
  }
  unpin_unit(unit);
  rec.status = UnitStatus::kPending;
  queue_.push_back(unit);
  ++requeues_;
  mark_pending(unit);
}

void FriedaRun::remove_vm(cluster::VmId vm) { events_->try_send(EvRemoveVm{vm}); }

sim::Signal& FriedaRun::node_ready(cluster::VmId vm) {
  auto& slot = node_ready_[vm];
  if (!slot) slot = std::make_unique<sim::Signal>(sim_);
  return *slot;
}

bool FriedaRun::worker_live(const WorkerCtx& ws) const {
  return !ws.isolated && !ws.finished && !ws.draining;
}

// ---------------------------------------------------------------------------
// Controller (control plane)
// ---------------------------------------------------------------------------

void FriedaRun::fork_workers_on(cluster::VmId vm, std::vector<WorkerId>& out) {
  const unsigned n = workers_per_vm(vm);
  for (unsigned slot = 0; slot < n; ++slot) {
    auto ctx = std::make_unique<WorkerCtx>();
    ctx->id = static_cast<WorkerId>(workers_.size());
    ctx->vm = vm;
    ctx->slot = slot;
    ctx->inbox = std::make_unique<sim::Channel<MasterMessage>>(sim_);
    out.push_back(ctx->id);
    workers_.push_back(std::move(ctx));
    sim_.spawn(worker_main(workers_.back()->id),
               "worker-" + std::to_string(workers_.back()->id));
  }
}

sim::Task<> FriedaRun::controller_main() {
  // Fig. 4: the controller starts the master and initializes it with the
  // partition strategy, keeping an open channel for runtime reconfiguration.
  co_await sim_.delay(options_.control_latency);
  // Messages are built into named locals before sending: see the note on
  // Channel::send about GCC 12 and co_await argument temporaries.
  InboxMessage start = StartMaster{options_.strategy, options_.assignment};
  co_await inbox_->send(std::move(start));
  InboxMessage partition_info = SetPartitionInfo{units_};
  co_await inbox_->send(std::move(partition_info));

  co_await cluster_.wait_all_running(initial_vms_);
  ready_time_ = sim_.now();

  std::vector<WorkerId> ids;
  for (const auto vm : initial_vms_) {
    if (cluster_.vm(vm).running()) fork_workers_on(vm, ids);
  }
  InboxMessage fork = ForkWorkers{ids};
  co_await inbox_->send(std::move(fork));
  FLOG(kDebug, "controller", "forked " << ids.size() << " workers at t=" << sim_.now());

  const std::set<cluster::VmId> initial_set(initial_vms_.begin(), initial_vms_.end());
  while (true) {
    auto ev = co_await events_->recv();
    if (!ev) break;
    if (const auto* failed = std::get_if<EvVmFailed>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == failed->vm && !ws->isolated) {
          InboxMessage isolate = IsolateWorker{ws->id};
          co_await inbox_->send(std::move(isolate));
        }
      }
    } else if (const auto* running = std::get_if<EvVmRunning>(&*ev)) {
      if (initial_set.count(running->vm)) continue;  // handled by ForkWorkers
      std::vector<WorkerId> added;
      fork_workers_on(running->vm, added);
      co_await sim_.delay(options_.control_latency);
      InboxMessage add = AddWorkers{added};
      co_await inbox_->send(std::move(add));
      FLOG(kDebug, "controller", "elastic add: vm " << running->vm << " joined with "
                                                    << added.size() << " workers");
    } else if (const auto* remove = std::get_if<EvRemoveVm>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == remove->vm && worker_live(*ws)) {
          InboxMessage drain = DrainWorker{ws->id};
          co_await inbox_->send(std::move(drain));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Master (execution plane, data management)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::master_main() {
  // Phase 1: initialization — wait for the controller's directives.
  while (!initialized_) {
    auto msg = co_await inbox_->recv();
    if (!msg) co_return;
    if (const auto* ctrl = std::get_if<ControlMessage>(&*msg)) {
      handle_control(*ctrl);
    } else {
      handle_worker_msg(std::get<WorkerMessage>(*msg));
    }
  }

  if (workers_.empty()) {
    // Every initial VM failed before booting: nothing can run.
    for (auto& rec : unit_state_) {
      if (rec.status == UnitStatus::kPending) unit_terminal(rec.unit, UnitStatus::kUnprocessed);
    }
    co_return;
  }

  // Phase 2: data staging per the placement strategy.
  co_await staging();
  staging_end_ = sim_.now();
  serving_ = true;
  serve_start_ = sim_.now();

  // Open-loop service mode: the arrival process feeds the queue from here
  // on, and the elasticity policy watches its depth.
  if (open_loop() && !finished_) {
    sim_.spawn(arrival_pump(), "arrival-pump");
    if (options_.elastic_policy.enabled) sim_.spawn(elastic_main(), "elastic-policy");
  }
  // Live telemetry samples from serving start (both modes): the probe's
  // epoch began at run(), but gauges only move once the farm is live.
  if (telemetry_ != nullptr && !finished_) sim_.spawn(telemetry_main(), "telemetry-probe");

  // Kick off the farm: commit assignments up to each worker's credit limit.
  top_up_all();

  // Phase 3: task farming (Fig. 3/4 dispatch loop).
  while (!finished_) {
    auto msg = co_await inbox_->recv();
    if (!msg) break;
    // During a master outage messages buffer (workers reconnect and resend
    // is unnecessary — the channel is the reconnection buffer); they are
    // processed in order once the controller restarts the master.
    while (master_down_) co_await master_recovered_->wait();
    if (finished_) break;
    if (const auto* ctrl = std::get_if<ControlMessage>(&*msg)) {
      handle_control(*ctrl);
    } else {
      handle_worker_msg(std::get<WorkerMessage>(*msg));
    }
  }
}

void FriedaRun::handle_control(const ControlMessage& msg) {
  if (const auto* start = std::get_if<StartMaster>(&msg)) {
    FRIEDA_CHECK(start->strategy == options_.strategy, "strategy mismatch");
    if (tracer_) trace_instant("start-master", "protocol");
  } else if (std::get_if<SetPartitionInfo>(&msg)) {
    // Units were validated in the constructor; nothing further to do.
  } else if (std::get_if<ForkWorkers>(&msg)) {
    initialized_ = true;
    if (tracer_) {
      trace_instant("fork-workers", "protocol",
                    {{"workers", std::to_string(workers_.size())}});
    }
  } else if (const auto* iso = std::get_if<IsolateWorker>(&msg)) {
    isolate_worker(iso->worker);
  } else if (const auto* add = std::get_if<AddWorkers>(&msg)) {
    if (tracer_) {
      trace_instant("add-workers", "protocol",
                    {{"workers", std::to_string(add->workers.size())}});
    }
    for (const auto w : add->workers) {
      const auto vm = workers_[w]->vm;
      if (!node_ready_.count(vm)) {
        sim_.spawn(stage_common_data(vm), "stage-common-elastic");
      }
    }
  } else if (const auto* drain = std::get_if<DrainWorker>(&msg)) {
    drain_worker(drain->worker);
  }
}

void FriedaRun::handle_worker_msg(const WorkerMessage& msg) {
  if (const auto* reg = std::get_if<RegisterWorker>(&msg)) {
    workers_[reg->worker]->registered = true;
  } else if (const auto* req = std::get_if<RequestWork>(&msg)) {
    // The worker's readiness announcement (Fig. 4 "request data").  Before
    // serving starts it is a no-op; master_main tops everyone up after
    // staging completes.
    if (serving_) top_up(req->worker);
  } else if (const auto* status = std::get_if<ExecStatus>(&msg)) {
    auto& ws = *workers_[status->worker];
    auto& rec = unit_state_[status->unit];
    ws.busy_seconds += status->exec_seconds;
    rec.exec_seconds = status->exec_seconds;
    rec.transfer_seconds += status->transfer_seconds;  // remote-read pulls
    if (status->ok) {
      ws.completed += 1;
      unit_terminal(status->unit, UnitStatus::kCompleted);
    } else {
      unit_not_completed(status->unit);
    }
    if (!finished_) top_up(status->worker);
  }
}

std::optional<WorkUnitId> FriedaRun::next_unit_for(WorkerCtx& ws) {
  // Pre-partitioned strategies serve the worker's own queue first; the
  // shared queue carries real-time dispatch and requeued units.
  while (!ws.preassigned.empty()) {
    const auto u = ws.preassigned.front();
    ws.preassigned.pop_front();
    if (unit_state_[u].status == UnitStatus::kPending) return u;
  }
  if (options_.locality_aware && !queue_.empty()) {
    // Topology-aware dispatch: scan a bounded prefix of the queue for a unit
    // whose inputs are already resident on this worker's node, avoiding WAN
    // traffic in federated deployments.
    const auto node = cluster_.vm(ws.vm).node();
    const std::size_t depth = std::min(options_.locality_scan_depth, queue_.size());
    for (std::size_t i = 0; i < depth; ++i) {
      const auto u = queue_[i];
      if (unit_state_[u].status != UnitStatus::kPending) continue;
      const bool local =
          std::all_of(units_[u].inputs.begin(), units_[u].inputs.end(),
                      [&](storage::FileId f) { return replicas_.has(f, node); });
      if (local) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        return u;
      }
    }
  }
  while (!queue_.empty()) {
    const auto u = queue_.front();
    queue_.pop_front();
    if (unit_state_[u].status == UnitStatus::kPending) return u;
  }
  return std::nullopt;
}

void FriedaRun::top_up(WorkerId worker) {
  if (finished_) return;
  auto& ws = *workers_[worker];
  if (ws.isolated || ws.finished) return;
  if (ws.draining) {
    if (ws.unacked == 0) {
      ws.inbox->try_send(NoMoreWork{});
      ws.finished = true;
      maybe_terminate_vm(ws.vm);
      check_progress_possible();
    }
    return;
  }
  // Credit-based farming: one executing assignment plus `prefetch` staged
  // ahead, so real-time transfers overlap the worker's current execution
  // ("the phases are interleaved", Section II.C).
  const std::size_t credits = 1 + static_cast<std::size_t>(std::max(options_.prefetch, 0));
  while (ws.unacked < credits) {
    const auto unit = next_unit_for(ws);
    if (!unit) break;
    auto& rec = unit_state_[*unit];
    rec.status = UnitStatus::kInFlight;
    rec.worker = worker;
    rec.attempts += 1;
    rec.dispatched = sim_.now();
    handed_[*unit] = 0;
    ++ws.unacked;
    trace_dispatched(*unit, worker);
    sim_.spawn(dispatch(worker, *unit), "dispatch");
  }
  if (ws.unacked > 0 || all_terminal()) return;

  const bool worker_exhausted = !options_.requeue_on_failure &&
                                options_.strategy != PlacementStrategy::kRealTime &&
                                !streams_inputs();
  if (worker_exhausted) {
    // Pre-partitioned, no requeue: this worker's share is done.
    ws.inbox->try_send(NoMoreWork{});
    ws.finished = true;
    maybe_terminate_vm(ws.vm);
    check_progress_possible();
  }
  // Otherwise the worker idles; a requeue tops it up again, and finish_all
  // releases it when every unit is terminal.
}

void FriedaRun::top_up_all() {
  for (const auto& ws : workers_) {
    if (finished_) return;
    top_up(ws->id);
  }
}

sim::Task<> FriedaRun::dispatch(WorkerId worker, WorkUnitId unit) {
  auto& ws = *workers_[worker];
  auto& rec = unit_state_[unit];
  // A master crash abandons this dispatch: the epoch changes and the
  // recovery path requeues the unit, so abandoned coroutines just return.
  const std::uint64_t epoch = master_epoch_;
  co_await sim_.delay(options_.dispatch_overhead);
  if (epoch != master_epoch_) co_return;
  co_await node_ready(ws.vm).wait();
  if (epoch != master_epoch_) co_return;
  if (ws.isolated || finished_) {
    if (rec.status == UnitStatus::kInFlight && rec.worker == worker) {
      unit_not_completed(unit);
    }
    co_return;
  }

  SimTime transfer_s = 0.0;
  bool ok = !invalid_nodes_.count(ws.vm);  // common data never arrived there
  if (ok && !streams_inputs()) {
    const auto node = cluster_.vm(ws.vm).node();
    // Inputs of in-flight units are pinned so concurrent dispatches cannot
    // evict them from the worker's limited local disk.
    pin_unit(unit, ws.vm);
    const bool allow_evict = options_.strategy == PlacementStrategy::kRealTime;
    for (const auto f : units_[unit].inputs) {
      if (replicas_.has(f, node)) continue;
      // Backpressure: when the disk is full but another unit is *executing*
      // on this VM (its inputs unpin on completion), wait rather than fail.
      // Units that are merely staging are themselves waiting for space, so
      // they do not count — that would be a mutual-wait livelock.
      int retries = 0;
      while (!reserve_disk(ws.vm, catalog_.info(f).size, allow_evict)) {
        const bool other_executing = std::any_of(
            unit_state_.begin(), unit_state_.end(), [&](const UnitRecord& other) {
              return other.unit != unit && other.status == UnitStatus::kInFlight &&
                     handed_[other.unit] && workers_[other.worker]->vm == ws.vm;
            });
        const bool other_staging = staging_active_[ws.vm] > 0;
        if ((!other_executing && !other_staging) || ws.isolated || finished_ ||
            ++retries > 10000) {
          FLOG(kWarn, "master", "vm " << ws.vm << " local disk full; cannot stage unit "
                                      << unit);
          ok = false;
          break;
        }
        co_await sim_.delay(0.25);
        if (epoch != master_epoch_) co_return;
      }
      if (!ok) break;
      const auto src = replica_source(f, node);
      if (!src) {  // every replica was lost (node churn)
        if (options_.track_disk_capacity) {
          cluster_.vm(ws.vm).disk().release(catalog_.info(f).size);
        }
        ok = false;
        break;
      }
      ++staging_active_[ws.vm];
      const auto r = co_await cluster_.network().transfer(
          *src, node, catalog_.info(f).size, options_.transfer_streams);
      --staging_active_[ws.vm];
      timeline_.record(ActivityKind::kTransfer, r.started, r.finished,
                       "input:" + catalog_.info(f).name);
      if (tracer_) {
        obs::TraceEvent ev;
        ev.name = "stage " + catalog_.info(f).name;
        ev.cat = "staging";
        ev.process = obs::kWorkerTrack;
        ev.track = static_cast<std::uint32_t>(worker);
        ev.start = r.started;
        ev.end = r.finished;
        ev.args = {{"unit", std::to_string(unit)},
                   {"file", catalog_.info(f).name},
                   {"bytes", std::to_string(r.transferred)},
                   {"ok", r.ok() ? "1" : "0"}};
        tracer_->span(std::move(ev));
      }
      transfer_s += r.duration();
      if (!r.ok()) {
        if (options_.track_disk_capacity) {
          cluster_.vm(ws.vm).disk().release(catalog_.info(f).size);
        }
        ok = false;
        break;
      }
      replicas_.add(f, node);
      note_staged(ws.vm, f);
      if (epoch != master_epoch_) co_return;  // bytes kept; unit was requeued
    }
  }
  rec.transfer_seconds += transfer_s;
  if (!ok || ws.isolated) {
    if (rec.status == UnitStatus::kInFlight && rec.worker == worker) {
      unit_not_completed(unit);
      if (!finished_) top_up(worker);  // keep draining the queue
    }
    co_return;
  }

  if (epoch != master_epoch_) co_return;
  AssignWork work = make_assignment(unit);
  handed_[unit] = 1;  // from here on the assignment survives a master crash
  MasterMessage assignment = std::move(work);
  const bool sent = co_await ws.inbox->send(std::move(assignment));
  if (!sent && rec.status == UnitStatus::kInFlight && rec.worker == worker) {
    unit_not_completed(unit);
    if (!finished_) top_up(worker);
  }
}

void FriedaRun::unit_terminal(WorkUnitId unit, UnitStatus status) {
  auto& rec = unit_state_[unit];
  FRIEDA_CHECK(rec.status != UnitStatus::kCompleted && rec.status != UnitStatus::kFailed &&
                   rec.status != UnitStatus::kUnprocessed,
               "unit " << unit << " reached a terminal state twice");
  if (rec.status == UnitStatus::kInFlight) {
    auto& ws = *workers_[rec.worker];
    FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
    --ws.unacked;
  }
  unpin_unit(unit);
  rec.status = status;
  rec.finished = sim_.now();
  if (open_loop() && status == UnitStatus::kCompleted) {
    latency_.add(rec.finished - rec.arrival);  // sojourn: arrival -> completion
    if (telemetry_ != nullptr) {
      telemetry_->observe_latency(rec.finished, rec.finished - rec.arrival);
    }
  }
  trace_terminal(rec);
  ++terminal_count_;
  if (all_terminal()) finish_all();
}

void FriedaRun::unit_not_completed(WorkUnitId unit) {
  auto& rec = unit_state_[unit];
  const bool any_live = std::any_of(workers_.begin(), workers_.end(),
                                    [&](const auto& ws) { return worker_live(*ws); });
  if (options_.requeue_on_failure && rec.attempts < options_.max_attempts && any_live) {
    if (rec.status == UnitStatus::kInFlight) {
      auto& ws = *workers_[rec.worker];
      FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
      --ws.unacked;
    }
    unpin_unit(unit);
    rec.status = UnitStatus::kPending;
    queue_.push_back(unit);
    ++requeues_;
    mark_pending(unit);
    if (tracer_) {
      trace_instant("requeue", "control",
                    {{"unit", std::to_string(unit)},
                     {"attempt", std::to_string(rec.attempts)}});
    }
    top_up_all();
    return;
  }
  unit_terminal(unit, UnitStatus::kFailed);
}

void FriedaRun::isolate_worker(WorkerId worker) {
  auto& ws = *workers_[worker];
  if (ws.isolated || finished_) return;
  ws.isolated = true;
  ++isolated_count_;
  if (tracer_) {
    trace_instant("isolate-worker", "protocol",
                  {{"worker", std::to_string(worker)}, {"vm", std::to_string(ws.vm)}});
  }
  ws.inbox->close();  // a blocked worker wakes with nullopt and exits

  // Units in flight on this worker are lost with it.
  for (auto& rec : unit_state_) {
    if (rec.status == UnitStatus::kInFlight && rec.worker == worker) {
      unit_not_completed(rec.unit);
      if (finished_) return;
    }
  }
  // Its pre-assigned share never ran.
  std::deque<WorkUnitId> share;
  share.swap(ws.preassigned);
  for (const auto u : share) {
    if (unit_state_[u].status != UnitStatus::kPending) continue;
    if (options_.requeue_on_failure) {
      queue_.push_back(u);
      mark_pending(u);
    } else {
      unit_terminal(u, UnitStatus::kUnprocessed);
      if (finished_) return;
    }
  }
  if (options_.requeue_on_failure) top_up_all();
  check_progress_possible();
}

void FriedaRun::drain_worker(WorkerId worker) {
  auto& ws = *workers_[worker];
  if (ws.isolated) return;
  if (ws.finished) {
    // Already done with its share; only the VM teardown remains.
    ws.draining = true;
    maybe_terminate_vm(ws.vm);
    return;
  }
  ws.draining = true;
  if (tracer_) {
    trace_instant("drain-worker", "protocol",
                  {{"worker", std::to_string(worker)}, {"vm", std::to_string(ws.vm)}});
  }
  // The worker's remaining pre-assigned share is requeued for the others.
  std::deque<WorkUnitId> share;
  share.swap(ws.preassigned);
  for (const auto u : share) {
    if (unit_state_[u].status == UnitStatus::kPending) {
      queue_.push_back(u);
      mark_pending(u);
    }
  }
  if (serving_) {
    top_up(worker);  // releases the worker immediately when it is idle
    top_up_all();
  }
  check_progress_possible();
}

void FriedaRun::maybe_terminate_vm(cluster::VmId vm) {
  bool all_done = true;
  bool any_drained = false;
  for (const auto& ws : workers_) {
    if (ws->vm != vm) continue;
    any_drained |= ws->draining;
    if (!ws->finished && !ws->isolated) all_done = false;
  }
  if (any_drained && all_done && cluster_.vm(vm).running()) {
    replicas_.drop_node(cluster_.vm(vm).node());
    cluster_.terminate_vm(vm);
    FLOG(kDebug, "master", "elastic remove: vm " << vm << " terminated at t=" << sim_.now());
  }
}

bool FriedaRun::reserve_disk(cluster::VmId vm, Bytes size, bool allow_eviction) {
  if (!options_.track_disk_capacity) return true;
  auto& disk = cluster_.vm(vm).disk();
  while (!disk.allocate(size)) {
    if (!allow_eviction || !options_.evict_processed_inputs || !evict_one_replica(vm)) {
      return false;
    }
  }
  return true;
}

bool FriedaRun::evict_one_replica(cluster::VmId vm) {
  auto& order = staged_order_[vm];
  const auto node = cluster_.vm(vm).node();
  auto& pinned = pins_[vm];
  for (auto it = order.begin(); it != order.end(); ++it) {
    const storage::FileId file = *it;
    if (!replicas_.has(file, node)) {
      continue;  // already gone (node churn); lazily skipped
    }
    if (const auto pin = pinned.find(file); pin != pinned.end() && pin->second > 0) {
      continue;  // an in-flight unit still needs it
    }
    if (replicas_.replica_count(file) <= 1) {
      continue;  // never evict the last copy (inputs may live only on VMs)
    }
    replicas_.remove(file, node);
    cluster_.vm(vm).disk().release(catalog_.info(file).size);
    order.erase(it);
    ++evictions_;
    if (tracer_) {
      trace_instant("evict", "control", {{"file", catalog_.info(file).name},
                                         {"vm", std::to_string(vm)}});
    }
    return true;
  }
  return false;
}

void FriedaRun::note_staged(cluster::VmId vm, storage::FileId file) {
  staged_order_[vm].push_back(file);
}

void FriedaRun::pin_unit(WorkUnitId unit, cluster::VmId vm) {
  unit_pin_vm_[unit] = vm;
  auto& pinned = pins_[vm];
  for (const auto f : units_[unit].inputs) ++pinned[f];
}

void FriedaRun::unpin_unit(WorkUnitId unit) {
  const auto it = unit_pin_vm_.find(unit);
  if (it == unit_pin_vm_.end()) return;
  auto& pinned = pins_[it->second];
  for (const auto f : units_[unit].inputs) {
    if (const auto pin = pinned.find(f); pin != pinned.end() && --pin->second <= 0) {
      pinned.erase(pin);
    }
  }
  unit_pin_vm_.erase(it);
}

void FriedaRun::invalidate_unstaged_preassignments() {
  // Upfront staging may have been cut short by disk capacity; the affected
  // units can never run on their assigned worker.
  for (auto& ws : workers_) {
    const auto node = cluster_.vm(ws->vm).node();
    std::deque<WorkUnitId> keep;
    for (const auto u : ws->preassigned) {
      const bool staged =
          std::all_of(units_[u].inputs.begin(), units_[u].inputs.end(),
                      [&](storage::FileId f) { return replicas_.has(f, node); });
      if (staged) {
        keep.push_back(u);
      } else if (unit_state_[u].status == UnitStatus::kPending) {
        if (options_.requeue_on_failure) {
          queue_.push_back(u);  // another worker can stage and run it
          mark_pending(u);
        } else {
          unit_terminal(u, UnitStatus::kUnprocessed);
          if (finished_) return;
        }
      }
    }
    ws->preassigned = std::move(keep);
  }
}

void FriedaRun::check_progress_possible() {
  if (finished_) return;
  const bool any_live = std::any_of(workers_.begin(), workers_.end(),
                                    [&](const auto& ws) { return worker_live(*ws); });
  if (any_live) return;
  // No worker can ever request again: pending units are unprocessable.
  for (auto& rec : unit_state_) {
    if (rec.status == UnitStatus::kPending) {
      unit_terminal(rec.unit, UnitStatus::kUnprocessed);
      if (finished_) return;
    }
  }
}

void FriedaRun::finish_all() {
  if (finished_) return;
  finished_ = true;
  end_time_ = sim_.now();
  for (auto& ws : workers_) {
    if (!ws->finished && !ws->isolated) {
      ws->inbox->try_send(NoMoreWork{});
      ws->finished = true;
    }
    ws->inbox->close();
  }
  events_->close();
  master_done_->trigger();
}

// ---------------------------------------------------------------------------
// Open-loop service mode (arrival injection + reactive elasticity)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::arrival_pump() {
  // Inject each unit into the shared dispatch queue at its arrival offset
  // (relative to serving start).  Arrivals keep flowing during a master
  // outage — the queue is the reconnection buffer; recover_master() tops the
  // workers up once the master is back.
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const SimTime at = serve_start_ + options_.arrivals[i];
    if (at > sim_.now()) co_await sim_.delay(at - sim_.now());
    if (finished_) co_return;
    auto& rec = unit_state_[i];
    if (rec.status != UnitStatus::kPending) continue;  // e.g. marked unprocessed
    rec.arrival = sim_.now();
    if (tracer_) trace_born_[i] = sim_.now();
    mark_pending(units_[i].id);
    queue_.push_back(units_[i].id);
    if (tracer_) {
      trace_instant("arrival", "service",
                    {{"unit", std::to_string(i)},
                     {"depth", std::to_string(queue_.size())}});
    }
    if (!master_down_) top_up_all();
  }
}

sim::Task<> FriedaRun::elastic_main() {
  // Queue-depth-reactive elasticity: sample the dispatch queue every
  // check_interval; a backlog sustained for `hysteresis` samples provisions
  // one extra VM, a sustained lull drains and releases the oldest VM this
  // policy added.  The initial fleet is never touched.
  const auto& ep = options_.elastic_policy;
  const cluster::InstanceType vm_type = cluster_.vm(initial_vms_.front()).type();
  int out_streak = 0;
  int in_streak = 0;
  while (!finished_) {
    co_await sim_.delay(ep.check_interval);
    if (finished_) co_return;
    const std::size_t depth = queue_.size();
    if (depth >= ep.scale_out_depth) {
      in_streak = 0;
      if (++out_streak >= ep.hysteresis) {
        out_streak = 0;
        if (elastic_live_.size() < ep.max_extra_vms) {
          const auto vm = add_vm(vm_type);
          elastic_live_.push_back(vm);
          ++scale_outs_;
          FLOG(kInfo, "elastic", "scale-out: vm " << vm << " provisioned at t=" << sim_.now()
                                                  << " (queue depth " << depth << ")");
          if (tracer_) {
            trace_instant("scale-out", "service",
                          {{"vm", std::to_string(vm)}, {"depth", std::to_string(depth)}});
          }
        }
      }
    } else if (depth <= ep.scale_in_depth) {
      out_streak = 0;
      if (++in_streak >= ep.hysteresis) {
        in_streak = 0;
        // Drain-and-release the oldest policy-added VM that is actually up
        // (one still booting is left to join and be considered next time).
        for (auto it = elastic_live_.begin(); it != elastic_live_.end(); ++it) {
          if (!cluster_.vm(*it).running()) continue;
          const auto vm = *it;
          elastic_live_.erase(it);
          ++scale_ins_;
          FLOG(kInfo, "elastic", "scale-in: vm " << vm << " draining at t=" << sim_.now()
                                                 << " (queue depth " << depth << ")");
          if (tracer_) {
            trace_instant("scale-in", "service",
                          {{"vm", std::to_string(vm)}, {"depth", std::to_string(depth)}});
          }
          remove_vm(vm);
          break;
        }
      }
    } else {
      out_streak = 0;
      in_streak = 0;
    }
  }
}

obs::TelemetryTick FriedaRun::telemetry_tick_now() const {
  obs::TelemetryTick t;
  t.queue_depth = static_cast<double>(queue_.size());
  std::size_t in_flight = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  std::set<cluster::VmId> vms;
  for (const auto& ws : workers_) {
    in_flight += ws->unacked;
    completed += ws->completed;
    if (worker_live(*ws)) {
      ++live;
      vms.insert(ws->vm);
    }
  }
  t.in_flight = static_cast<double>(in_flight);
  t.active_workers = static_cast<double>(live);
  t.active_vms = static_cast<double>(vms.size());
  t.completed = static_cast<double>(completed);
  t.net_solves =
      static_cast<double>(cluster_.network().solver_invocations() - net_baseline_.solves);
  t.scale_outs = static_cast<double>(scale_outs_);
  t.scale_ins = static_cast<double>(scale_ins_);
  return t;
}

sim::Task<> FriedaRun::telemetry_main() {
  // Sample the attached probe every interval of simulation time until the
  // run finishes; run() adds the final sample at end_time_ itself.
  const SimTime interval = telemetry_->interval();
  while (!finished_) {
    co_await sim_.delay(interval);
    if (finished_) co_return;
    telemetry_->tick(sim_.now(), telemetry_tick_now());
  }
}

// ---------------------------------------------------------------------------
// Data staging
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::stage_common_data(cluster::VmId vm) {
  auto& ready = node_ready(vm);
  const Bytes common = app_.common_data_bytes();
  if (common == 0 || options_.strategy == PlacementStrategy::kPrePartitionLocal ||
      common_preplaced_) {
    ready.trigger();
    co_return;
  }
  if (!reserve_disk(vm, common, /*allow_eviction=*/false)) {
    FLOG(kError, "master",
         "common data does not fit on vm " << vm << "; its workers cannot run");
    invalid_nodes_.insert(vm);
    ready.trigger();
    co_return;
  }
  const auto node = cluster_.vm(vm).node();
  const auto r = co_await cluster_.network().transfer(cluster_.source_node(), node, common,
                                                      options_.transfer_streams);
  timeline_.record(ActivityKind::kTransfer, r.started, r.finished, "common-data");
  if (tracer_) {
    obs::TraceEvent ev;
    ev.name = "stage-common";
    ev.cat = "staging";
    ev.process = obs::kRunTrack;
    ev.track = static_cast<std::uint32_t>(vm);
    ev.start = r.started;
    ev.end = r.finished;
    ev.args = {{"vm", std::to_string(vm)}, {"bytes", std::to_string(r.transferred)}};
    tracer_->span(std::move(ev));
  }
  ready.trigger();
}

sim::Task<> FriedaRun::stage_files_to_node(cluster::VmId vm, std::vector<storage::FileId> files) {
  // scp-like: one file at a time per node; nodes stage concurrently and
  // share the master's NIC through the network model.
  co_await stage_common_data(vm);
  const auto node = cluster_.vm(vm).node();
  for (const auto f : files) {
    if (replicas_.has(f, node)) continue;
    if (!reserve_disk(vm, catalog_.info(f).size, /*allow_eviction=*/false)) {
      FLOG(kWarn, "master", "vm " << vm << " local disk full during staging; "
                                  << "remaining files stay at the source");
      co_return;  // invalidate_unstaged_preassignments() marks the fallout
    }
    const auto src = replica_source(f, node);
    if (!src) {
      if (options_.track_disk_capacity) cluster_.vm(vm).disk().release(catalog_.info(f).size);
      co_return;
    }
    const auto r = co_await cluster_.network().transfer(
        *src, node, catalog_.info(f).size, options_.transfer_streams);
    timeline_.record(ActivityKind::kTransfer, r.started, r.finished,
                     "stage:" + catalog_.info(f).name);
    if (tracer_) {
      obs::TraceEvent ev;
      ev.name = "stage-node " + catalog_.info(f).name;
      ev.cat = "staging";
      ev.process = obs::kRunTrack;
      ev.track = static_cast<std::uint32_t>(vm);
      ev.start = r.started;
      ev.end = r.finished;
      ev.args = {{"vm", std::to_string(vm)},
                 {"file", catalog_.info(f).name},
                 {"bytes", std::to_string(r.transferred)},
                 {"ok", r.ok() ? "1" : "0"}};
      tracer_->span(std::move(ev));
    }
    if (!r.ok()) {
      if (options_.track_disk_capacity) cluster_.vm(vm).disk().release(catalog_.info(f).size);
      co_return;  // node died; isolation handles the fallout
    }
    replicas_.add(f, node);
    note_staged(vm, f);
  }
}

sim::Task<> FriedaRun::staging() {
  if (tracer_) {
    trace_born_.assign(units_.size(), sim_.now());
    trace_pending_ = trace_born_;
  }
  const bool pre_mode = options_.strategy == PlacementStrategy::kNoPartitionCommon ||
                        options_.strategy == PlacementStrategy::kPrePartitionLocal ||
                        options_.strategy == PlacementStrategy::kPrePartitionRemote;

  if (pre_mode) {
    // The master determines the per-worker groups at the beginning
    // (paper Section II.F).
    const auto assignment = plan_assignment(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      workers_[w]->preassigned.assign(assignment[w].begin(), assignment[w].end());
    }
  } else if (!open_loop()) {
    // Real-time / remote-read: every unit waits in the shared queue and is
    // handed out lazily as workers ask (the 'lazy' transfer of Section II.F).
    // Open-loop runs leave the queue empty: the arrival pump fills it.
    for (const auto& u : units_) queue_.push_back(u.id);
  }

  std::set<cluster::VmId> vms;
  for (const auto& ws : workers_) vms.insert(ws->vm);

  switch (options_.strategy) {
    case PlacementStrategy::kPrePartitionLocal: {
      // Data must already be resident (packaged in the VM image).
      for (const auto& ws : workers_) {
        const auto node = cluster_.vm(ws->vm).node();
        for (const auto u : ws->preassigned) {
          for (const auto f : units_[u].inputs) {
            FRIEDA_CHECK(replicas_.has(f, node),
                         "pre-partition-local requires file " << f << " on node " << node
                                                              << "; seed with pre_place_*()");
          }
        }
      }
      for (const auto vm : vms) node_ready(vm).trigger();
      break;
    }
    case PlacementStrategy::kPrePartitionRemote:
    case PlacementStrategy::kNoPartitionCommon: {
      // Sequential phases: "process execution starts only when the transfer
      // of data is completed" (Section II.C).
      sim::WaitGroup wg(sim_);
      for (const auto vm : vms) {
        std::vector<storage::FileId> files;
        if (options_.strategy == PlacementStrategy::kNoPartitionCommon) {
          files = catalog_.all_ids();
        } else {
          std::set<storage::FileId> wanted;
          for (const auto& ws : workers_) {
            if (ws->vm != vm) continue;
            for (const auto u : ws->preassigned) {
              for (const auto f : units_[u].inputs) wanted.insert(f);
            }
          }
          files.assign(wanted.begin(), wanted.end());
        }
        wg.add(1);
        sim_.spawn([](FriedaRun& self, cluster::VmId v, std::vector<storage::FileId> fs,
                      sim::WaitGroup& group) -> sim::Task<> {
          co_await self.stage_files_to_node(v, std::move(fs));
          group.done();
        }(*this, vm, std::move(files), wg),
                   "stage-node");
      }
      co_await wg.wait();
      invalidate_unstaged_preassignments();
      break;
    }
    case PlacementStrategy::kRealTime:
    case PlacementStrategy::kRemoteRead:
    case PlacementStrategy::kSharedVolume: {
      // No upfront staging; common data streams in concurrently with the
      // dispatch loop (transfers overlap computation, Section IV.B).
      for (const auto vm : vms) {
        sim_.spawn(stage_common_data(vm), "stage-common");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker (execution plane)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::worker_main(WorkerId id) {
  auto& ws = *workers_[id];
  co_await cluster_.wait_running(ws.vm);
  auto& vm = cluster_.vm(ws.vm);
  if (!vm.running()) co_return;  // failed during boot

  InboxMessage reg = RegisterWorker{id};
  co_await inbox_->send(std::move(reg));
  // Announce readiness once (Fig. 4 "request data"); afterwards the master's
  // credit accounting keeps this worker fed until NoMoreWork.
  InboxMessage request = RequestWork{id};
  if (!co_await inbox_->send(std::move(request))) co_return;
  while (true) {
    if (!vm.running()) co_return;
    const auto msg = co_await ws.inbox->recv();
    if (!msg || std::holds_alternative<NoMoreWork>(*msg)) co_return;
    const auto& work = std::get<AssignWork>(*msg);

    SimTime transfer_s = 0.0;
    if (!work.inputs_staged) {
      // Remote-read: the worker streams its inputs over the network at
      // execution time instead of staging them.
      bool read_ok = true;
      for (const auto f : work.unit.inputs) {
        const auto src = replica_source(f, vm.node());
        if (!src) {  // every replica was lost
          read_ok = false;
          break;
        }
        const auto r = co_await cluster_.network().transfer(
            *src, vm.node(), catalog_.info(f).size, options_.transfer_streams);
        timeline_.record(ActivityKind::kTransfer, r.started, r.finished,
                         "remote-read:" + catalog_.info(f).name);
        if (tracer_) {
          obs::TraceEvent ev;
          ev.name = "remote-read " + catalog_.info(f).name;
          ev.cat = "staging";
          ev.process = obs::kWorkerTrack;
          ev.track = static_cast<std::uint32_t>(id);
          ev.start = r.started;
          ev.end = r.finished;
          ev.args = {{"unit", std::to_string(work.unit.id)},
                     {"file", catalog_.info(f).name},
                     {"bytes", std::to_string(r.transferred)},
                     {"ok", r.ok() ? "1" : "0"}};
          tracer_->span(std::move(ev));
        }
        transfer_s += r.duration();
        if (!r.ok()) {
          read_ok = false;
          break;
        }
      }
      if (!read_ok) {
        if (!vm.running()) co_return;  // our VM died mid-read
        InboxMessage fail = ExecStatus{id, work.unit.id, false, transfer_s, 0.0};
        if (!co_await inbox_->send(std::move(fail))) co_return;
        continue;
      }
    }

    const SimTime cost = app_.task_seconds(work.unit);
    const auto result = co_await vm.compute(cost);
    timeline_.record(ActivityKind::kCompute, sim_.now() - result.duration, sim_.now(),
                     app_.name());
    if (tracer_) {
      obs::TraceEvent ev;
      ev.name = "exec unit " + std::to_string(work.unit.id);
      ev.cat = "exec";
      ev.process = obs::kWorkerTrack;
      ev.track = static_cast<std::uint32_t>(id);
      ev.start = sim_.now() - result.duration;
      ev.end = sim_.now();
      ev.args = {{"unit", std::to_string(work.unit.id)},
                 {"vm", std::to_string(ws.vm)},
                 {"completed", result.completed ? "1" : "0"}};
      tracer_->span(std::move(ev));
    }
    if (!result.completed) co_return;  // interrupted by VM failure

    bool io_ok = true;
    const Bytes out_bytes = app_.output_bytes(work.unit);
    if (out_bytes > 0) {
      // Outputs stay on worker-local storage (the paper's evaluation mode)
      // and consume the same limited disk the inputs compete for.
      if (options_.track_disk_capacity && !vm.disk().allocate(out_bytes)) {
        io_ok = false;
      } else {
        const auto io = co_await vm.disk().write(out_bytes);
        io_ok = io.ok;
      }
    }
    InboxMessage status = ExecStatus{id, work.unit.id, io_ok, transfer_s, result.duration};
    if (!co_await inbox_->send(std::move(status))) {
      co_return;
    }
  }
}

// ---------------------------------------------------------------------------
// Run + report
// ---------------------------------------------------------------------------

RunReport FriedaRun::run() {
  FRIEDA_CHECK(!ran_, "FriedaRun::run() may only be called once");
  ran_ = true;
  net_baseline_ = cluster_.network().counters();
  cluster_.network().set_tracer(tracer_);
  if (telemetry_ != nullptr) telemetry_->begin(sim_.now(), tracer_);

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

  if (telemetry_ != nullptr) {
    // Final sample at the run's end (a no-op when a scheduled tick already
    // landed there), then evaluate SLO targets over the recorded series.
    telemetry_->tick(end_time_, telemetry_tick_now());
    telemetry_->finish(end_time_);
  }

  if (tracer_) {
    // Run-window anchor for trace analytics (obs::TraceAnalyzer): one span
    // covering exactly the reported makespan [ready_time_, end_time_], so
    // the analyzer's critical path and attribution windows match
    // RunReport::makespan() instead of the raw event extent.
    obs::TraceEvent ev;
    ev.name = "run";
    ev.cat = "run";
    ev.process = obs::kRunTrack;
    ev.track = 0;
    ev.start = ready_time_;
    ev.end = end_time_;
    ev.args.push_back({"app", app_.name()});
    ev.args.push_back({"strategy", std::string(to_string(options_.strategy))});
    ev.args.push_back({"workers", std::to_string(workers_.size())});
    // Solver activity over the run window, so frieda-trace can report the
    // incremental-solve hit rate without needing a metrics registry.
    ev.args.push_back({"net_solves", std::to_string(net.solves)});
    ev.args.push_back({"net_full_solves", std::to_string(net.full_solves)});
    ev.args.push_back({"net_dirty_classes", std::to_string(net.dirty_classes)});
    // Control-plane instantiation counters, so frieda-trace can report the
    // execution-template hit rate (see template.hpp).
    ev.args.push_back({"cp_instantiations", std::to_string(cp_instantiations_)});
    ev.args.push_back({"cp_templated", std::to_string(cp_templated_)});
    ev.args.push_back({"cp_patches", std::to_string(cp_patches_)});
    if (report.open_loop && report.latency.count() > 0) {
      // Service-mode latency summary, so frieda-trace can print the
      // percentile line without re-deriving sojourns from unit spans.
      ev.args.push_back({"latency_p50", std::to_string(report.latency_p(50.0))});
      ev.args.push_back({"latency_p95", std::to_string(report.latency_p(95.0))});
      ev.args.push_back({"latency_p99", std::to_string(report.latency_p(99.0))});
      ev.args.push_back({"sustained_tput", std::to_string(report.sustained_throughput())});
    }
    if (telemetry_ != nullptr && !telemetry_->options().slo.empty()) {
      // SLO totals, so frieda-trace can headline time-in-violation without
      // re-deriving it from the breach spans.
      const auto& slo = telemetry_->slo();
      ev.args.push_back({"slo_breaches", std::to_string(slo.total_breaches())});
      ev.args.push_back({"slo_violation_s", obs::format_sample(slo.total_violation_s())});
    }
    tracer_->span(std::move(ev));
  }
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
    m.gauge("sim.event_slots_reused").set(static_cast<double>(qc.slots_reused));
  }
  // Detach: the tracer may not outlive this run, but the cluster's network
  // does.
  cluster_.network().set_tracer(nullptr);
  return report;
}

}  // namespace frieda::core
