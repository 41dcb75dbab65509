#include "frieda/run.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::core {

sim::Task<> FriedaRun::master_main() {
  // Phase 1: initialization — wait for the controller's directives.
  while (!initialized_) {
    auto msg = co_await inbox_.recv();
    if (!msg) co_return;
    handle(*msg);
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
  tap_.start_sampler([this](SimTime interval) {
    if (!finished_) sim_.spawn(telemetry_main(interval), "telemetry-probe");
  });

  // Kick off the farm: commit assignments up to each worker's credit limit.
  top_up_all();

  // Phase 3: task farming (Fig. 3/4 dispatch loop).
  while (!finished_) {
    auto msg = co_await inbox_.recv();
    if (!msg) break;
    // During a master outage messages buffer (workers reconnect and resend
    // is unnecessary — the channel is the reconnection buffer); they are
    // processed in order once the controller restarts the master.
    while (master_down_) co_await master_recovered_->wait();
    if (finished_) break;
    handle(*msg);
  }
}

void FriedaRun::handle(const InboxMessage& msg) {
  if (const auto* ctrl = std::get_if<ControlMessage>(&msg)) {
    handle_control(*ctrl);
  } else {
    handle_worker_msg(std::get<WorkerMessage>(msg));
  }
}

void FriedaRun::handle_control(const ControlMessage& msg) {
  if (const auto* start = std::get_if<StartMaster>(&msg)) {
    FRIEDA_CHECK(start->strategy == options_.strategy, "strategy mismatch");
    tap_.protocol(sim_.now(), obs::event::kStartMaster);
  } else if (std::get_if<SetPartitionInfo>(&msg)) {
    // Units were validated in the constructor; nothing further to do.
  } else if (std::get_if<ForkWorkers>(&msg)) {
    initialized_ = true;
    tap_.protocol(sim_.now(), obs::event::kForkWorkers, obs::key::kWorkers, workers_.size());
  } else if (const auto* iso = std::get_if<IsolateWorker>(&msg)) {
    isolate_worker(iso->worker);
  } else if (const auto* add = std::get_if<AddWorkers>(&msg)) {
    tap_.protocol(sim_.now(), obs::event::kAddWorkers, obs::key::kWorkers, add->workers.size());
    for (const auto w : add->workers) {
      const auto vm = workers_[w]->vm;
      if (!vm_state(vm).ready_claimed) {
        sim_.spawn(stage_common_data(vm), "stage-common-elastic");
      }
    }
  } else if (const auto* drain = std::get_if<DrainWorker>(&msg)) {
    drain_worker(drain->worker);
  }
}

void FriedaRun::handle_worker_msg(const WorkerMessage& msg) {
  // RegisterWorker needs no bookkeeping: the worker is known since its fork.
  if (const auto* req = std::get_if<RequestWork>(&msg)) {
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
      if (inputs_on(u, node)) {
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
    if (ws.unacked == 0) release_worker(ws);
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
    unit_hold_[*unit].handed = false;
    ++ws.unacked;
    tap_.dispatched(*unit, sim_.now(), rec.attempts, worker, ws.vm);
    sim_.spawn(dispatch(worker, *unit), "dispatch");
  }
  if (ws.unacked > 0 || all_terminal()) return;

  const bool worker_exhausted = !options_.requeue_on_failure &&
                                options_.strategy != PlacementStrategy::kRealTime &&
                                !streams_inputs();
  // Pre-partitioned, no requeue: this worker's share is done.  Otherwise the
  // worker idles; a requeue tops it up again, and finish_all releases it
  // when every unit is terminal.
  if (worker_exhausted) release_worker(ws);
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
  // Waiting does not claim the VM: an elastic VM's dispatch may get here
  // before the master handles its AddWorkers and starts the staging.
  co_await vm_state(ws.vm).ready.wait();
  if (epoch != master_epoch_) co_return;
  if (ws.isolated || finished_) {
    if (rec.status == UnitStatus::kInFlight && rec.worker == worker) {
      unit_not_completed(unit);
    }
    co_return;
  }

  SimTime transfer_s = 0.0;
  auto& host = vm_state(ws.vm);
  bool ok = !host.invalid;  // common data never arrived there
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
                     unit_hold_[other.unit].handed && workers_[other.worker]->vm == ws.vm;
            });
        const bool other_staging = host.staging_active > 0;
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
      const auto src = reserved_source(ws.vm, f);
      if (!src) {  // every replica was lost (node churn)
        ok = false;
        break;
      }
      ++host.staging_active;
      const auto r = co_await cluster_.network().transfer(
          *src, node, catalog_.info(f).size, options_.transfer_streams);
      --host.staging_active;
      transfer_s += r.duration();
      if (!landed(Leg::kInput, ws.vm, worker, unit, f, r)) {
        ok = false;
        break;
      }
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
  unit_hold_[unit].handed = true;  // from here on the assignment survives a master crash
  MasterMessage assignment = std::move(work);
  const bool sent = ws.inbox.send(std::move(assignment));
  if (!sent && rec.status == UnitStatus::kInFlight && rec.worker == worker) {
    unit_not_completed(unit);
    if (!finished_) top_up(worker);
  }
}

// ---------------------------------------------------------------------------
// Unit accounting: every unit reaches exactly one terminal state
// ---------------------------------------------------------------------------

void FriedaRun::release_credit(const UnitRecord& rec) {
  if (rec.status != UnitStatus::kInFlight) return;
  auto& ws = *workers_[rec.worker];
  FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
  --ws.unacked;
}

void FriedaRun::enqueue(WorkUnitId unit) {
  queue_.push_back(unit);
  tap_.pending(unit, sim_.now());
}

void FriedaRun::requeue(WorkUnitId unit) {
  auto& rec = unit_state_[unit];
  release_credit(rec);
  unpin_unit(unit);
  rec.status = UnitStatus::kPending;
  ++requeues_;
  enqueue(unit);
}

void FriedaRun::unit_terminal(WorkUnitId unit, UnitStatus status) {
  auto& rec = unit_state_[unit];
  FRIEDA_CHECK(rec.status != UnitStatus::kCompleted && rec.status != UnitStatus::kFailed &&
                   rec.status != UnitStatus::kUnprocessed,
               "unit " << unit << " reached a terminal state twice");
  release_credit(rec);
  unpin_unit(unit);
  rec.status = status;
  rec.finished = sim_.now();
  if (open_loop() && status == UnitStatus::kCompleted) {
    latency_.add(rec.finished - rec.arrival);  // sojourn: arrival -> completion
    tap_.latency(unit, rec.finished);
  }
  tap_.terminal(unit, rec.finished, to_string(rec.status), rec.attempts, rec.worker,
                rec.attempts > 0 ? workers_[rec.worker]->vm : 0);
  ++terminal_count_;
  if (all_terminal()) finish_all();
}

void FriedaRun::unit_not_completed(WorkUnitId unit) {
  auto& rec = unit_state_[unit];
  if (options_.requeue_on_failure && rec.attempts < options_.max_attempts &&
      any_worker_live()) {
    requeue(unit);
    tap_.control(sim_.now(), obs::event::kRequeue, obs::key::kUnit, unit, obs::key::kAttempt,
                 rec.attempts);
    top_up_all();
    return;
  }
  unit_terminal(unit, UnitStatus::kFailed);
}

// ---------------------------------------------------------------------------
// Worker lifecycle: isolation, draining, release
// ---------------------------------------------------------------------------

bool FriedaRun::worker_live(const WorkerCtx& ws) const {
  return !ws.isolated && !ws.finished && !ws.draining;
}

bool FriedaRun::any_worker_live() const {
  return std::any_of(workers_.begin(), workers_.end(),
                     [&](const auto& ws) { return worker_live(*ws); });
}

void FriedaRun::release_worker(WorkerCtx& ws) {
  ws.inbox.send(NoMoreWork{});
  ws.finished = true;
  maybe_terminate_vm(ws.vm);
  check_progress_possible();
}

void FriedaRun::isolate_worker(WorkerId worker) {
  auto& ws = *workers_[worker];
  if (ws.isolated || finished_) return;
  ws.isolated = true;
  ++isolated_count_;
  tap_.protocol(sim_.now(), obs::event::kIsolateWorker, obs::key::kWorker, worker, obs::key::kVm,
                ws.vm);
  ws.inbox.close();  // a blocked worker wakes with nullopt and exits

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
      enqueue(u);
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
  tap_.protocol(sim_.now(), obs::event::kDrainWorker, obs::key::kWorker, worker, obs::key::kVm,
                ws.vm);
  // The worker's remaining pre-assigned share is requeued for the others.
  std::deque<WorkUnitId> share;
  share.swap(ws.preassigned);
  for (const auto u : share) {
    if (unit_state_[u].status == UnitStatus::kPending) enqueue(u);
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

void FriedaRun::check_progress_possible() {
  if (finished_ || any_worker_live()) return;
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
      ws->inbox.send(NoMoreWork{});
      ws->finished = true;
    }
    ws->inbox.close();
  }
  events_.close();
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
  inbox_.send(std::move(reg));
  // Announce readiness once (Fig. 4 "request data"); afterwards the master's
  // credit accounting keeps this worker fed until NoMoreWork.
  InboxMessage request = RequestWork{id};
  if (!inbox_.send(std::move(request))) co_return;
  while (true) {
    if (!vm.running()) co_return;
    const auto msg = co_await ws.inbox.recv();
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
        transfer_s += r.duration();
        if (!landed(Leg::kRemoteRead, ws.vm, id, work.unit.id, f, r)) {
          read_ok = false;
          break;
        }
      }
      if (!read_ok) {
        if (!vm.running()) co_return;  // our VM died mid-read
        InboxMessage fail = ExecStatus{id, work.unit.id, false, transfer_s, 0.0};
        if (!inbox_.send(std::move(fail))) co_return;
        continue;
      }
    }

    const SimTime cost = app_.task_seconds(work.unit);
    const auto result = co_await vm.compute(cost);
    timeline_.record(ActivityKind::kCompute, sim_.now() - result.duration, sim_.now(),
                     app_.name());
    tap_.exec(id, work.unit.id, sim_.now() - result.duration, sim_.now(), ws.vm,
              result.completed);
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
    if (!inbox_.send(std::move(status))) {
      co_return;
    }
  }
}

}  // namespace frieda::core
