#include "frieda/run.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sim/sync.hpp"

namespace frieda::core {

FriedaRun::VmState& FriedaRun::vm_state(cluster::VmId vm) {
  while (vm_state_.size() <= vm) vm_state_.emplace_back(sim_);
  return vm_state_[vm];
}

sim::Signal& FriedaRun::node_ready(cluster::VmId vm) {
  auto& state = vm_state(vm);
  state.ready_claimed = true;
  return state.ready;
}

sim::Task<> FriedaRun::staging() {
  tap_.units_born(units_.size(), sim_.now());
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
    vm_state(vm).invalid = true;
    ready.trigger();
    co_return;
  }
  const auto r = co_await cluster_.network().transfer(
      cluster_.source_node(), cluster_.vm(vm).node(), common, options_.transfer_streams);
  landed(Leg::kCommon, vm, 0, 0, 0, r);
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
    const auto src = reserved_source(vm, f);
    if (!src) co_return;
    const auto r = co_await cluster_.network().transfer(
        *src, node, catalog_.info(f).size, options_.transfer_streams);
    if (!landed(Leg::kNode, vm, 0, 0, f, r)) co_return;  // node died; isolation handles it
  }
}

void FriedaRun::invalidate_unstaged_preassignments() {
  // Upfront staging may have been cut short by disk capacity; the affected
  // units can never run on their assigned worker.
  for (auto& ws : workers_) {
    const auto node = cluster_.vm(ws->vm).node();
    std::deque<WorkUnitId> keep;
    for (const auto u : ws->preassigned) {
      if (inputs_on(u, node)) {
        keep.push_back(u);
      } else if (unit_state_[u].status == UnitStatus::kPending) {
        if (options_.requeue_on_failure) {
          enqueue(u);  // another worker can stage and run it
        } else {
          unit_terminal(u, UnitStatus::kUnprocessed);
          if (finished_) return;
        }
      }
    }
    ws->preassigned = std::move(keep);
  }
}

bool FriedaRun::inputs_on(WorkUnitId unit, net::NodeId node) const {
  return std::all_of(units_[unit].inputs.begin(), units_[unit].inputs.end(),
                     [&](storage::FileId f) { return replicas_.has(f, node); });
}

std::optional<net::NodeId> FriedaRun::replica_source(storage::FileId file,
                                                     net::NodeId target) {
  const auto& nodes = replicas_.nodes_with(file);
  if (nodes.empty()) return std::nullopt;
  const auto source = cluster_.source_node();
  if (nodes.count(source) > 0) return source;
  // Of several candidates the lowest node id wins, whatever the set's order.
  const auto& topo = cluster_.network().topology();
  const auto site = topo.site(target);
  std::optional<net::NodeId> same_site;
  std::optional<net::NodeId> any;
  for (const auto n : nodes) {
    if (n == target) continue;
    if (!any || n < *any) any = n;
    if (topo.site(n) == site && (!same_site || n < *same_site)) same_site = n;
  }
  return same_site ? same_site : any;
}

std::optional<net::NodeId> FriedaRun::reserved_source(cluster::VmId vm, storage::FileId file) {
  const auto src = replica_source(file, cluster_.vm(vm).node());
  if (!src) release_disk(vm, catalog_.info(file).size);
  return src;
}

bool FriedaRun::landed(Leg leg, cluster::VmId vm, WorkerId worker, WorkUnitId unit,
                       storage::FileId file, const net::TransferResult& r) {
  if (leg == Leg::kCommon) {
    timeline_.record(ActivityKind::kTransfer, r.started, r.finished, "common-data");
    tap_.stage_common(vm, r.started, r.finished, r.transferred);
    return r.ok();
  }
  const auto& name = catalog_.info(file).name;
  if (leg == Leg::kRemoteRead) {  // streamed, never stored
    timeline_.record(ActivityKind::kTransfer, r.started, r.finished, "remote-read:" + name);
    tap_.remote_read(worker, unit, name, r.started, r.finished, r.transferred, r.ok());
    return r.ok();
  }
  if (leg == Leg::kInput) {
    timeline_.record(ActivityKind::kTransfer, r.started, r.finished, "input:" + name);
    tap_.stage_input(worker, unit, name, r.started, r.finished, r.transferred, r.ok());
  } else {
    timeline_.record(ActivityKind::kTransfer, r.started, r.finished, "stage:" + name);
    tap_.stage_node(vm, name, r.started, r.finished, r.transferred, r.ok());
  }
  if (!r.ok()) {
    release_disk(vm, catalog_.info(file).size);
    return false;
  }
  replicas_.add(file, cluster_.vm(vm).node());
  vm_state(vm).staged_order.push_back(file);  // the newest eviction candidate
  return true;
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

void FriedaRun::release_disk(cluster::VmId vm, Bytes size) {
  if (options_.track_disk_capacity) cluster_.vm(vm).disk().release(size);
}

bool FriedaRun::evict_one_replica(cluster::VmId vm) {
  auto& state = vm_state(vm);
  auto& order = state.staged_order;
  const auto node = cluster_.vm(vm).node();
  for (auto it = order.begin(); it != order.end(); ++it) {
    const storage::FileId file = *it;
    if (!replicas_.has(file, node)) {
      continue;  // already gone (node churn); lazily skipped
    }
    if (std::find(state.pinned.begin(), state.pinned.end(), file) != state.pinned.end()) {
      continue;  // an in-flight unit still needs it
    }
    if (replicas_.replica_count(file) <= 1) {
      continue;  // never evict the last copy (inputs may live only on VMs)
    }
    replicas_.remove(file, node);
    cluster_.vm(vm).disk().release(catalog_.info(file).size);
    order.erase(it);
    ++evictions_;
    tap_.control(sim_.now(), obs::event::kEvict, obs::key::kFile, catalog_.info(file).name,
                 obs::key::kVm, vm);
    return true;
  }
  return false;
}

void FriedaRun::pin_unit(WorkUnitId unit, cluster::VmId vm) {
  unit_hold_[unit].pin_vm = vm;
  unit_hold_[unit].pinned = true;
  auto& pinned = vm_state(vm).pinned;
  pinned.insert(pinned.end(), units_[unit].inputs.begin(), units_[unit].inputs.end());
}

void FriedaRun::unpin_unit(WorkUnitId unit) {
  auto& hold = unit_hold_[unit];
  if (!hold.pinned) return;
  auto& pinned = vm_state(hold.pin_vm).pinned;
  for (const auto f : units_[unit].inputs) {
    if (const auto pin = std::find(pinned.begin(), pinned.end(), f); pin != pinned.end()) {
      *pin = pinned.back();
      pinned.pop_back();
    }
  }
  hold.pinned = false;
}

}  // namespace frieda::core
