#include "frieda/run.hpp"

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::core {

void FriedaRun::fork_workers_on(cluster::VmId vm, std::vector<WorkerId>& out) {
  const unsigned n = workers_per_vm(vm);
  for (unsigned slot = 0; slot < n; ++slot) {
    auto ctx = std::make_unique<WorkerCtx>(sim_);
    ctx->id = static_cast<WorkerId>(workers_.size());
    ctx->vm = vm;
    ctx->slot = slot;
    out.push_back(ctx->id);
    workers_.push_back(std::move(ctx));
    sim_.spawn(worker_main(workers_.back()->id), "worker");
  }
}

sim::Task<> FriedaRun::controller_main() {
  // Fig. 4: the controller starts the master and initializes it with the
  // partition strategy, keeping an open channel for runtime reconfiguration.
  co_await sim_.delay(options_.control_latency);
  InboxMessage start = StartMaster{options_.strategy, options_.assignment};
  inbox_.send(std::move(start));
  InboxMessage partition_info = SetPartitionInfo{units_};
  inbox_.send(std::move(partition_info));

  co_await cluster_.wait_all_running(initial_vms_);
  ready_time_ = sim_.now();

  std::vector<WorkerId> ids;
  for (const auto vm : initial_vms_) {
    if (cluster_.vm(vm).running()) fork_workers_on(vm, ids);
  }
  InboxMessage fork = ForkWorkers{ids};
  inbox_.send(std::move(fork));
  FLOG(kDebug, "controller", "forked " << ids.size() << " workers at t=" << sim_.now());

  const std::set<cluster::VmId> initial_set(initial_vms_.begin(), initial_vms_.end());
  while (true) {
    auto ev = co_await events_.recv();
    if (!ev) break;
    if (const auto* failed = std::get_if<EvVmFailed>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == failed->vm && !ws->isolated) {
          InboxMessage isolate = IsolateWorker{ws->id};
          inbox_.send(std::move(isolate));
        }
      }
    } else if (const auto* running = std::get_if<EvVmRunning>(&*ev)) {
      if (initial_set.count(running->vm)) continue;  // handled by ForkWorkers
      std::vector<WorkerId> added;
      fork_workers_on(running->vm, added);
      co_await sim_.delay(options_.control_latency);
      InboxMessage add = AddWorkers{added};
      inbox_.send(std::move(add));
      FLOG(kDebug, "controller", "elastic add: vm " << running->vm << " joined with "
                                                    << added.size() << " workers");
    } else if (const auto* remove = std::get_if<EvRemoveVm>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == remove->vm && worker_live(*ws)) {
          InboxMessage drain = DrainWorker{ws->id};
          inbox_.send(std::move(drain));
        }
      }
    }
  }
}

cluster::VmId FriedaRun::add_vm(const cluster::InstanceType& type) {
  return cluster_.provision(type);  // EvVmRunning arrives once booted
}

void FriedaRun::remove_vm(cluster::VmId vm) { events_.send(EvRemoveVm{vm}); }

void FriedaRun::crash_master(SimTime recovery_delay) {
  FRIEDA_CHECK(std::isfinite(recovery_delay) && recovery_delay >= 0.0,
               "recovery delay must be finite and >= 0");
  if (finished_ || master_down_) return;
  ++master_crashes_;
  tap_.protocol(sim_.now(), obs::event::kMasterCrash, obs::key::kRecoveryS, recovery_delay);
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
    if (rec.status == UnitStatus::kInFlight && !unit_hold_[rec.unit].handed) requeue(rec.unit);
  }
  tap_.protocol(sim_.now(), obs::event::kMasterRecover);
  FLOG(kInfo, "controller", "master recovered at t=" << sim_.now());
  master_recovered_->trigger();
  if (serving_) top_up_all();
}

}  // namespace frieda::core
