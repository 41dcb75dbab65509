#include "cluster/vm.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::cluster {

InstanceType c1_xlarge() { return InstanceType{}; }

InstanceType c1_medium() {
  InstanceType t;
  t.name = "c1.medium";
  t.cores = 1;
  t.memory = 2 * GiB;
  t.disk_capacity = 10 * GiB;
  return t;
}

InstanceType m1_large() {
  InstanceType t;
  t.name = "m1.large";
  t.cores = 2;
  t.memory = 8 * GiB;
  t.disk_capacity = 80 * GiB;
  return t;
}

const char* to_string(VmState state) {
  switch (state) {
    case VmState::kProvisioning: return "provisioning";
    case VmState::kRunning: return "running";
    case VmState::kFailed: return "failed";
    case VmState::kTerminated: return "terminated";
  }
  return "?";
}

Vm::Vm(sim::Simulation& sim, VmId id, net::NodeId node, InstanceType type)
    : sim_(sim),
      id_(id),
      node_(node),
      type_(std::move(type)),
      disk_(sim, type_.disk_read_bw, type_.disk_write_bw, type_.disk_capacity),
      cores_(sim, static_cast<std::int64_t>(type_.cores)) {
  FRIEDA_CHECK(type_.cores > 0, "VM needs at least one core");
  active_slices_.reserve(type_.cores);  // one slice per core at most
}

void Vm::mark_running() {
  FRIEDA_CHECK(state_ == VmState::kProvisioning, "mark_running on " << to_string(state_) << " VM");
  state_ = VmState::kRunning;
}

void Vm::fail() {
  if (state_ == VmState::kFailed || state_ == VmState::kTerminated) return;
  FLOG(kDebug, "cluster", "vm " << id_ << " failed");
  state_ = VmState::kFailed;
  disk_.fail();
  std::vector<Slice*> slices;
  slices.swap(active_slices_);
  for (auto it = slices.rbegin(); it != slices.rend(); ++it) {
    Slice& slice = **it;
    if (!slice.armed()) continue;  // ended, not yet resumed
    slice.disarm();
    slice.ok = false;
    slice.signal.trigger();
  }
}

void Vm::terminate() {
  if (state_ == VmState::kFailed || state_ == VmState::kTerminated) return;
  FRIEDA_CHECK(active_slices_.empty(),
               "terminate() on vm " << id_ << " with running work; drain it first");
  state_ = VmState::kTerminated;
}

sim::Task<ComputeResult> Vm::compute(SimTime seconds) {
  FRIEDA_CHECK(seconds >= 0.0, "negative compute time");
  const SimTime start = sim_.now();
  if (!running()) co_return ComputeResult{false, 0.0};

  co_await cores_.acquire();
  if (!running()) {
    cores_.release();
    co_return ComputeResult{false, sim_.now() - start};
  }

  ++busy_cores_;
  Slice slice(sim_);
  slice.arm_at(sim_.now() + seconds);
  active_slices_.push_back(&slice);

  co_await slice.signal.wait();

  // fail() empties the list before it wakes anyone: unlink only if listed.
  std::erase(active_slices_, &slice);
  --busy_cores_;
  if (slice.ok) core_seconds_used_ += seconds;
  cores_.release();
  co_return ComputeResult{slice.ok, sim_.now() - start};
}

}  // namespace frieda::cluster
