#include "cluster/cluster.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::cluster {

VirtualCluster::VirtualCluster(sim::Simulation& sim, ClusterOptions options)
    : sim_(sim), options_(options) {
  net::Topology topo;
  source_node_ =
      topo.add_node("source", options_.source_nic_up, options_.source_nic_down);
  if (options_.with_storage_server) {
    storage_node_ = topo.add_node("storage", options_.storage_nic, options_.storage_nic);
  }
  network_ = std::make_unique<net::Network>(sim_, std::move(topo), options_.network_latency);
}

VmId VirtualCluster::provision_at(const InstanceType& type, net::SiteId site) {
  const net::NodeId node =
      network_->topology().add_node("vm" + std::to_string(vms_.size()), type.nic_up,
                                    type.nic_down);
  if (site != 0) network_->topology().set_site(node, site);
  if (options_.provisioned_pair_limit > 0) {
    network_->topology().set_pair_limit(source_node_, node, options_.provisioned_pair_limit);
    network_->topology().set_pair_limit(node, source_node_, options_.provisioned_pair_limit);
  }
  const VmId id = static_cast<VmId>(vms_.size());
  vms_.push_back(std::make_unique<Vm>(sim_, id, node, type));
  boots_.push_back(std::make_unique<Boot>(*this, id));
  boots_.back()->arm_at(sim_.now() + std::max(type.boot_time, 0.0));
  return id;
}

void VirtualCluster::Boot::fire() {
  auto& machine = *cluster.vms_[id];
  if (machine.state() == VmState::kProvisioning) {
    machine.mark_running();
    FLOG(kDebug, "cluster", "vm " << id << " booted at t=" << cluster.sim_.now());
    for (const auto& [token, cb] : cluster.running_observers_) cb(id);
  }
  done.trigger();
}

std::vector<VmId> VirtualCluster::provision(const InstanceType& type, std::size_t count,
                                            net::SiteId site) {
  std::vector<VmId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(provision_at(type, site));
  return ids;
}

void VirtualCluster::connect_sites(net::SiteId a, net::SiteId b, Bandwidth wan_capacity) {
  network_->topology().set_intersite_capacity(a, b, wan_capacity);
}

sim::Task<> VirtualCluster::wait_running(VmId id) {
  FRIEDA_CHECK(id < vms_.size(), "vm id out of range");
  co_await boots_[id]->done.wait();
}

sim::Task<> VirtualCluster::wait_all_running(std::vector<VmId> ids) {
  for (VmId id : ids) co_await wait_running(id);
}

Vm& VirtualCluster::vm(VmId id) {
  FRIEDA_CHECK(id < vms_.size(), "vm id " << id << " out of range");
  return *vms_[id];
}

const Vm& VirtualCluster::vm(VmId id) const {
  FRIEDA_CHECK(id < vms_.size(), "vm id " << id << " out of range");
  return *vms_[id];
}

std::vector<VmId> VirtualCluster::all_vms() const {
  std::vector<VmId> ids(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) ids[i] = static_cast<VmId>(i);
  return ids;
}

std::vector<VmId> VirtualCluster::running_vms() const {
  std::vector<VmId> ids;
  for (const auto& machine : vms_) {
    if (machine->running()) ids.push_back(machine->id());
  }
  return ids;
}

unsigned VirtualCluster::total_running_cores() const {
  unsigned cores = 0;
  for (const auto& machine : vms_) {
    if (machine->running()) cores += machine->type().cores;
  }
  return cores;
}

void VirtualCluster::fail_vm(VmId id) {
  Vm& machine = vm(id);
  if (machine.state() == VmState::kFailed || machine.state() == VmState::kTerminated) return;
  const bool was_provisioning = machine.state() == VmState::kProvisioning;
  machine.fail();
  network_->fail_node(machine.node());
  if (was_provisioning) boots_[id]->done.trigger();
  for (const auto& [token, cb] : failure_observers_) cb(id);
}

std::size_t VirtualCluster::on_failure(std::function<void(VmId)> cb) {
  const std::size_t token = next_observer_token_++;
  failure_observers_.emplace(token, std::move(cb));
  return token;
}

std::size_t VirtualCluster::on_running(std::function<void(VmId)> cb) {
  const std::size_t token = next_observer_token_++;
  running_observers_.emplace(token, std::move(cb));
  return token;
}

void VirtualCluster::remove_observer(std::size_t token) {
  failure_observers_.erase(token);
  running_observers_.erase(token);
}

void VirtualCluster::terminate_vm(VmId id) {
  Vm& machine = vm(id);
  machine.terminate();
  network_->fail_node(machine.node());  // release flows towards the slot
}

void FailureInjector::schedule(VmId id, SimTime when) {
  cluster_.simulation().schedule_at(when, [this, id] {
    if (cluster_.vm(id).running()) {
      cluster_.fail_vm(id);
      ++injected_;
    }
  });
}

void FailureInjector::enable_random(double rate, std::size_t max_failures) {
  FRIEDA_CHECK(rate > 0.0, "failure rate must be > 0");
  auto& sim = cluster_.simulation();
  // Pre-draw the failure times so the stream is independent of how many VMs
  // exist when each trigger fires.
  Rng rng = sim.rng().fork();
  SimTime t = 0.0;
  for (std::size_t i = 0; i < max_failures; ++i) {
    t += rng.exponential(rate);
    const std::uint64_t pick = rng.next_u64();
    sim.schedule_at(t, [this, pick] {
      const auto running = cluster_.running_vms();
      if (running.empty()) return;
      const VmId victim = running[pick % running.size()];
      cluster_.fail_vm(victim);
      ++injected_;
    });
  }
}

void ActionPlan::at(SimTime when, std::function<void()> action) {
  sim_.schedule_at(when, std::move(action));
  ++count_;
}

}  // namespace frieda::cluster
