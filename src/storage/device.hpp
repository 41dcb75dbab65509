// Storage device models.
//
// The paper's Section III.A surveys the cloud storage menu: fast-but-small
// VM-local disks, networked block volumes (iSCSI/EBS), and shared external
// stores.  We model:
//
//   * LocalDisk — processor-sharing service with separate read/write
//     bandwidth and a capacity budget; the fastest option but transient and
//     small (paper: "local disk space is very limited").
//   * NetworkVolume — block volume served by a storage node; every I/O is a
//     network flow between the host VM and the volume server, so concurrent
//     clients contend on the server NIC exactly as iSCSI clients do.
//   * ObjectStore — request/response store with per-request latency plus a
//     shared-bandwidth data path (S3-like), layered on a NetworkVolume path.
//
// All devices support fail()/restore() so a VM crash aborts in-flight I/O.
//
// SharedService keeps no heap state per operation: each Op (with its Signal)
// lives in its submit() frame, the service lists the in-flight ops by raw
// pointer in submission order, and finished ops are compacted out of that
// list in place.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace frieda::storage {

/// Outcome of a device I/O operation.
struct IoResult {
  bool ok = true;          ///< false when the device failed mid-operation
  SimTime duration = 0.0;  ///< wall-clock time the operation took
};

/// Abstract storage device with capacity accounting.
class StorageDevice {
 public:
  /// Construct with a capacity budget in bytes.
  explicit StorageDevice(Bytes capacity) : capacity_(capacity) {}
  virtual ~StorageDevice() = default;

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  /// Read `bytes`; resumes when serviced (or failed).
  virtual sim::Task<IoResult> read(Bytes bytes) = 0;

  /// Write `bytes`; resumes when serviced (or failed).
  virtual sim::Task<IoResult> write(Bytes bytes) = 0;

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

 private:
  Bytes capacity_;
  Bytes used_ = 0;
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
  void reschedule();

  sim::Simulation& sim_;
  Bandwidth rate_;
  bool failed_ = false;
  std::vector<Op*> ops_;  ///< in-flight ops, in submission order
  SimTime last_advance_ = 0.0;
  sim::EventQueue::Handle completion_event_;
};

/// VM-local disk: fast, small, dies with the VM.
class LocalDisk : public StorageDevice {
 public:
  /// Construct with distinct read/write bandwidths and a capacity budget.
  LocalDisk(sim::Simulation& sim, Bandwidth read_bw, Bandwidth write_bw, Bytes capacity);

  sim::Task<IoResult> read(Bytes bytes) override;
  sim::Task<IoResult> write(Bytes bytes) override;

  /// Abort in-flight I/O and reject new I/O (VM crash).
  void fail();

  /// Bring the disk back (fresh VM on the same slot).
  void restore();

  /// Writes currently in flight on the write channel.
  std::size_t writes_in_flight() const { return write_path_.active(); }

 private:
  SharedService read_path_;
  SharedService write_path_;
};

/// Network block volume served from `server_node`; I/O rides the network.
class NetworkVolume : public StorageDevice {
 public:
  /// `host_node` is the VM mounting the volume.
  NetworkVolume(net::Network& network, net::NodeId server_node, net::NodeId host_node,
                Bytes capacity);

  sim::Task<IoResult> read(Bytes bytes) override;
  sim::Task<IoResult> write(Bytes bytes) override;

  /// The serving node (its NIC is the shared constraint among clients).
  net::NodeId server_node() const { return server_; }

 private:
  net::Network& network_;
  net::NodeId server_;
  net::NodeId host_;
};

/// Object store: per-request latency plus a networked data path.
class ObjectStore : public StorageDevice {
 public:
  /// `request_latency` models the HTTP round trip before bytes flow.
  ObjectStore(sim::Simulation& sim, net::Network& network, net::NodeId server_node,
              net::NodeId host_node, SimTime request_latency, Bytes capacity);

  sim::Task<IoResult> read(Bytes bytes) override;   ///< GET
  sim::Task<IoResult> write(Bytes bytes) override;  ///< PUT

 private:
  sim::Simulation& sim_;
  net::Network& network_;
  net::NodeId server_;
  net::NodeId host_;
  SimTime request_latency_;
};

}  // namespace frieda::storage
