// Virtual cluster: provisioning, lifecycle, and the data-source node.
//
// Mirrors the paper's experiment setup (Section IV.A): a set of VMs launched
// on a testbed with provisioned network bandwidth, plus the node where the
// input data lives ("the master process needs to run close to the source of
// the input data").  The cluster owns the Network and the VMs, wires VM
// failures through to the network, and notifies observers so the control
// plane can react (Section V.A, Robust/Elastic).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/vm.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace frieda::cluster {

/// Cluster-wide knobs.
struct ClusterOptions {
  Bandwidth source_nic_up = mbps(100);    ///< data-source egress (paper: 100 Mbps)
  Bandwidth source_nic_down = mbps(100);  ///< data-source ingress
  SimTime network_latency = 1e-3;         ///< per-transfer setup latency
  Bandwidth provisioned_pair_limit = 0;   ///< 0 = no per-pair caps
  bool with_storage_server = false;       ///< add a shared-volume server node
                                          ///< (iSCSI/shared FS, Section III.A)
  Bandwidth storage_nic = mbps(1000);     ///< the storage server's NIC
};

/// A provisioned set of VMs plus the data-source node, over one Network.
class VirtualCluster {
 public:
  /// Build the cluster; creates the data-source topology node immediately.
  VirtualCluster(sim::Simulation& sim, ClusterOptions options = {});

  VirtualCluster(const VirtualCluster&) = delete;
  VirtualCluster& operator=(const VirtualCluster&) = delete;

  /// The shared network.
  net::Network& network() { return *network_; }

  /// Topology node holding the input data (the master runs here).
  net::NodeId source_node() const { return source_node_; }

  /// Shared-volume server node, when configured (ClusterOptions).
  std::optional<net::NodeId> storage_node() const { return storage_node_; }

  /// The owning simulation.
  sim::Simulation& simulation() { return sim_; }

  /// Provision one VM of `type` at the data source's home site.  The VM
  /// boots asynchronously and reaches kRunning after type.boot_time; returns
  /// its id immediately.
  VmId provision(const InstanceType& type) { return provision_at(type, 0); }

  /// Provision one VM at a specific federated site.
  VmId provision_at(const InstanceType& type, net::SiteId site);

  /// Provision `count` identical VMs at `site`; returns their ids.
  std::vector<VmId> provision(const InstanceType& type, std::size_t count,
                              net::SiteId site = 0);

  /// Federate with a remote site: flows crossing the two sites share the
  /// given WAN capacity (paper Sections I/V.C, networked cloud orchestration).
  void connect_sites(net::SiteId a, net::SiteId b, Bandwidth wan_capacity);

  /// Block (in simulation time) until the VM is running, failed or terminated.
  sim::Task<> wait_running(VmId id);

  /// Block until every listed VM left kProvisioning.
  sim::Task<> wait_all_running(std::vector<VmId> ids);

  /// Access a VM; throws on bad id.
  Vm& vm(VmId id);
  const Vm& vm(VmId id) const;

  /// All VM ids ever provisioned.
  std::vector<VmId> all_vms() const;

  /// Ids of VMs currently in kRunning.
  std::vector<VmId> running_vms() const;

  /// Sum of cores across running VMs.
  unsigned total_running_cores() const;

  /// Crash a VM: interrupts compute and I/O, aborts its network flows, and
  /// notifies failure observers (the controller).
  void fail_vm(VmId id);

  /// Gracefully release a VM (elastic scale-in).  The VM must be drained.
  void terminate_vm(VmId id);

  /// Register a callback invoked when a VM fails; returns a token for
  /// remove_observer (callers must unregister before they are destroyed).
  std::size_t on_failure(std::function<void(VmId)> cb);

  /// Register a callback invoked when a VM becomes running (boot complete).
  std::size_t on_running(std::function<void(VmId)> cb);

  /// Unregister a callback returned by on_failure/on_running; idempotent.
  void remove_observer(std::size_t token);

 private:
  sim::Simulation& sim_;
  ClusterOptions options_;
  std::unique_ptr<net::Network> network_;
  net::NodeId source_node_;
  std::optional<net::NodeId> storage_node_;
  /// Marks VM `id` running when it fires; wait_running() waits on `done`.
  struct Boot final : sim::Timer {
    Boot(VirtualCluster& c, VmId vm) : Timer(c.sim_), cluster(c), id(vm), done(c.sim_) {}
    void fire() override;
    VirtualCluster& cluster;
    VmId id;
    sim::Signal done;
  };
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::unique_ptr<Boot>> boots_;
  std::size_t next_observer_token_ = 1;
  std::map<std::size_t, std::function<void(VmId)>> failure_observers_;
  std::map<std::size_t, std::function<void(VmId)>> running_observers_;
};

/// Schedules VM failures: either at explicit times or stochastically.
/// The injector only fails VMs that are running when the trigger fires, and
/// never touches the data-source node.
class FailureInjector {
 public:
  /// Construct over a cluster.
  explicit FailureInjector(VirtualCluster& cluster) : cluster_(cluster) {}

  /// Fail a specific VM at an absolute time.
  void schedule(VmId id, SimTime when);

  /// Fail up to `max_failures` uniformly-chosen running VMs with i.i.d.
  /// exponential inter-failure times of the given rate (failures/second).
  /// Deterministic for the simulation seed.
  void enable_random(double rate, std::size_t max_failures);

  /// Number of failures actually injected so far.
  std::size_t injected() const { return injected_; }

 private:
  VirtualCluster& cluster_;
  std::size_t injected_ = 0;
};

/// A timed action plan (elasticity schedule): invoke a callback at times.
class ActionPlan {
 public:
  /// Construct over a simulation.
  explicit ActionPlan(sim::Simulation& sim) : sim_(sim) {}

  /// Run `action` at absolute simulation time `when`.
  void at(SimTime when, std::function<void()> action);

  /// Number of scheduled actions.
  std::size_t count() const { return count_; }

 private:
  sim::Simulation& sim_;
  std::size_t count_ = 0;
};

}  // namespace frieda::cluster
