// Virtual machine model.
//
// A VM is a topology node with cores, a local disk, and a lifecycle.  Program
// execution is modeled as occupying one core for the task's service time
// (the paper clones one program instance per core, Section II.C).  A VM
// failure interrupts every running computation and in-flight local I/O, and
// invalidates the VM for future work — the transient-resource hazard FRIEDA
// is designed around.
//
// Slice ownership: each running computation is a Slice that lives in its
// compute() frame, with its Signal by value, and is itself the timer that
// ends it; the VM lists the running slices by raw pointer in start order.
// fail() interrupts the listed slices newest-first (the reverse of start
// order): that order is defined here because the wake-ups it schedules
// decide the order of the requeues that follow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/device.hpp"

namespace frieda::cluster {

/// Identifier of a VM within its cluster.
using VmId = std::uint32_t;

/// Hardware/flavor description, mirroring cloud instance types.
/// The paper uses ExoGENI c1.xlarge: 4 QEMU cores, 4 GB memory.
struct InstanceType {
  std::string name = "c1.xlarge";
  unsigned cores = 4;
  Bytes memory = 4 * GiB;
  Bandwidth nic_up = mbps(100);
  Bandwidth nic_down = mbps(100);
  Bandwidth disk_read_bw = mBps(120);
  Bandwidth disk_write_bw = mBps(90);
  Bytes disk_capacity = 20 * GiB;
  SimTime boot_time = 30.0;  ///< provisioning + boot latency
};

/// Pre-canned instance types used across examples and benches.
InstanceType c1_xlarge();   ///< the paper's evaluation flavor
InstanceType c1_medium();   ///< 1 core variant for heterogeneity studies
InstanceType m1_large();    ///< 2 cores, bigger disk

/// VM lifecycle states.
enum class VmState {
  kProvisioning,  ///< requested, not yet booted
  kRunning,       ///< accepting work
  kFailed,        ///< crashed; local data lost
  kTerminated,    ///< released by elasticity policy
};

/// Render a state name for logs/reports.
const char* to_string(VmState state);

/// Result of a compute slice on a VM core.
struct ComputeResult {
  bool completed = true;   ///< false when the VM failed mid-run
  SimTime duration = 0.0;  ///< wall time including core queueing
};

/// One virtual machine.
class Vm {
 public:
  /// Construct a VM bound to topology node `node`.
  Vm(sim::Simulation& sim, VmId id, net::NodeId node, InstanceType type);

  VmId id() const { return id_; }
  net::NodeId node() const { return node_; }
  const InstanceType& type() const { return type_; }
  VmState state() const { return state_; }

  /// True when the VM can accept work.
  bool running() const { return state_ == VmState::kRunning; }

  /// Local disk device (valid for the VM's lifetime).
  storage::LocalDisk& disk() { return disk_; }

  /// Mark the VM booted and ready (called by the cluster after boot_time).
  void mark_running();

  /// Crash the VM: interrupt running computations (newest first) and local
  /// I/O.  Network flows are aborted by the cluster, which owns the Network.
  void fail();

  /// Graceful release (elastic scale-in).
  void terminate();

  /// Occupy one core for `seconds` of service time; resumes with
  /// completed=false if the VM fails first.  Queues when all cores are busy.
  sim::Task<ComputeResult> compute(SimTime seconds);

  /// Cores currently executing work.
  unsigned busy_cores() const { return busy_cores_; }

  /// Total core-seconds of completed service time.
  SimTime core_seconds_used() const { return core_seconds_used_; }

 private:
  /// Armed until it ends: by its own fire, or by fail() (ok = false).
  struct Slice final : sim::Timer {
    explicit Slice(sim::Simulation& sim) : Timer(sim), signal(sim) {}
    void fire() override { signal.trigger(); }
    bool ok = true;
    sim::Signal signal;
  };

  sim::Simulation& sim_;
  VmId id_;
  net::NodeId node_;
  InstanceType type_;
  VmState state_ = VmState::kProvisioning;
  storage::LocalDisk disk_;
  sim::Semaphore cores_;
  unsigned busy_cores_ = 0;
  SimTime core_seconds_used_ = 0.0;
  std::vector<Slice*> active_slices_;  ///< running slices, in start order
};

}  // namespace frieda::cluster
