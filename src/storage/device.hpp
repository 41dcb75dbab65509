// Storage device model.
//
// The paper's Section III.A surveys the cloud storage menu: fast-but-small
// VM-local disks, networked block volumes (iSCSI/EBS), and shared external
// stores.  The one device modelled here is the LocalDisk: processor-sharing
// service with separate read/write bandwidth and a capacity budget; the
// fastest option but transient and small (paper: "local disk space is very
// limited").  fail()/restore() let a VM crash abort its in-flight I/O.
// Shared volumes are not a device: a shared-volume run reads from the
// cluster's storage-server node, so its I/O is network flows that contend on
// the server NIC like iSCSI clients do.
//
// SharedService keeps no heap state per operation: each Op (with its Signal)
// lives in its submit() frame, the service lists the in-flight ops by raw
// pointer in submission order, and finished ops are compacted out of that
// list in place.  One embedded timer stands for the soonest completion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace frieda::storage {

/// Outcome of a device I/O operation.
struct IoResult {
  bool ok = true;          ///< false when the device failed mid-operation
  SimTime duration = 0.0;  ///< wall-clock time the operation took
};

/// Processor-sharing service: concurrent operations share `rate` equally.
/// Used for local-disk read/write channels.
class SharedService {
 public:
  /// Construct with the aggregate service rate in bytes/second.
  SharedService(sim::Simulation& sim, Bandwidth rate);

  /// Service `bytes`; resumes with ok=false if fail() hit the op mid-flight.
  sim::Task<IoResult> submit(Bytes bytes);

  /// Abort all in-flight operations; subsequent submissions fail instantly.
  void fail();

  /// Accept operations again.
  void restore();

  /// Number of in-flight operations.
  std::size_t active() const { return ops_.size(); }

 private:
  struct Op {
    Op(sim::Simulation& sim, double bytes) : remaining(bytes), signal(sim) {}
    double remaining;
    bool done = false;
    bool ok = true;
    sim::Signal signal;
  };

  void advance();
  /// Advance, retire finished ops and re-arm the completion for the rest.
  void reschedule();

  sim::Simulation& sim_;
  Bandwidth rate_;
  bool failed_ = false;
  std::vector<Op*> ops_;  ///< in-flight ops, in submission order
  SimTime last_advance_ = 0.0;
  sim::MemberTimer<SharedService, &SharedService::reschedule> completion_{sim_, *this};
};

/// VM-local disk: fast, small, dies with the VM.
class LocalDisk {
 public:
  /// Construct with distinct read/write bandwidths and a capacity budget.
  LocalDisk(sim::Simulation& sim, Bandwidth read_bw, Bandwidth write_bw, Bytes capacity);

  LocalDisk(const LocalDisk&) = delete;
  LocalDisk& operator=(const LocalDisk&) = delete;

  /// Read `bytes`; resumes when serviced (or failed).
  sim::Task<IoResult> read(Bytes bytes);

  /// Write `bytes`; resumes when serviced (or failed).
  sim::Task<IoResult> write(Bytes bytes);

  /// Reserve space; returns false when the budget would be exceeded.
  bool allocate(Bytes bytes);

  /// Release previously reserved space.
  void release(Bytes bytes);

  /// Capacity budget.
  Bytes capacity() const { return capacity_; }

  /// Bytes currently reserved.
  Bytes used() const { return used_; }

  /// Remaining budget.
  Bytes available() const { return capacity_ - used_; }

  /// Abort in-flight I/O and reject new I/O (VM crash).
  void fail();

  /// Bring the disk back (fresh VM on the same slot).
  void restore();

  /// Writes currently in flight on the write channel.
  std::size_t writes_in_flight() const { return write_path_.active(); }

 private:
  SharedService read_path_;
  SharedService write_path_;
  Bytes capacity_;
  Bytes used_ = 0;
};

}  // namespace frieda::storage
