// Flow-level network simulation with max-min fair bandwidth sharing.
//
// A transfer is a fluid flow from a source node to a destination node.
// Flows with the same (src, dst) endpoints traverse exactly the same
// resources, so they are coalesced into one weighted flow class and the
// max-min solver runs over O(distinct classes) instead of O(flows).  This
// models TCP-like sharing of the paper's 100 Mbps provisioned links without
// per-packet simulation, which is exactly the granularity the evaluation
// observes (whole-file scp durations).
//
// The allocation is maintained *incrementally* between events (see
// docs/performance.md "Incremental re-solve and hierarchical topology").
// Every class keeps its solved per-flow rate, a cumulative work accumulator
// (bytes delivered per member flow, accrued lazily in O(1)) and a min-heap of
// member flows keyed by completion work target.  A flow arrival, departure or
// failure dirties only the connected component of classes reachable from the
// changed class across shared resources — max-min allocations decompose
// exactly over such components — so untouched classes keep their rates and
// their queued drain times without re-solve.  The component is solved in
// place on persistent resource ids.  Topology mutations and node
// failure/restore bump an invalidation version that forces one full solve.
//
// Kept component: the component a BFS collected stays in component_ and
// component_resources_ between solves, so a solve seeded inside it skips the
// BFS.  Membership changes keep it exact: a class that empties leaves it
// (with the resources only it used), and a freshly activated class whose
// resources are used only by members — at least one — joins it.  The kept
// component is dropped, and the next solve runs the BFS, on a full solve, on
// fail_node, and when a departing class leaves two or more of its resources
// with other users (it may have been their only bridge: the component may
// have split).  Members are kept in order with joiners appended, not in
// BFS-from-seed order; max-min rates do not depend on the order.
//
// Drain times live in one network-owned drain schedule: an indexed min-heap
// of classes ordered by (fire time, schedule sequence), with a single
// simulation event armed at its top.  A class's entry may be early (its rate
// dropped since it was queued): it then fires, finds nothing drained and
// re-queues itself at the exact time without a solve.
//
// Node failure support: fail_node() aborts every flow touching the node;
// the awaiting process resumes with TransferStatus::kFailed, mirroring a
// dropped scp connection when a VM disappears.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.hpp"
#include "net/fairshare.hpp"
#include "net/topology.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace frieda::obs {
class Tracer;
}  // namespace frieda::obs

namespace frieda::net {

/// Terminal status of a transfer.
enum class TransferStatus {
  kCompleted,  ///< all bytes delivered
  kFailed,     ///< a participating node failed mid-flight
};

/// Result handed back to the process that awaited the transfer.
struct TransferResult {
  TransferStatus status = TransferStatus::kCompleted;
  Bytes requested = 0;     ///< bytes asked for
  Bytes transferred = 0;   ///< bytes actually moved before completion/failure
  SimTime started = 0.0;   ///< when the flow entered the network
  SimTime finished = 0.0;  ///< when it completed or was aborted

  /// Wall-clock duration of the flow.
  SimTime duration() const { return finished - started; }

  /// Convenience: completed successfully?
  bool ok() const { return status == TransferStatus::kCompleted; }
};

/// Aggregate per-node traffic accounting.
struct NodeTraffic {
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
};

/// The network service.  One instance per simulation.
class Network {
 public:
  /// Cumulative activity counters, always kept (plain integers, no
  /// observer needed).  A run exports the delta between two snapshots as
  /// its `net.*` metrics (see core::FriedaRun::run).
  struct Counters {
    Bytes bytes_moved = 0;                ///< incl. partial bytes of failed transfers
    std::uint64_t transfers_started = 0;
    std::uint64_t transfers_finished = 0; ///< every exit path, failed ones included
    std::uint64_t transfers_failed = 0;
    std::uint64_t solves = 0;             ///< component re-solves + full solves
    std::uint64_t full_solves = 0;        ///< invalidation-forced global solves
    std::uint64_t dirty_classes = 0;      ///< sum of per-solve dirty-set sizes
    std::uint64_t flows_coalesced = 0;    ///< sum of per-solve (flows - classes)

    /// Field-wise `*this - base` (counters only grow).
    Counters since(const Counters& base) const;
  };

  /// Construct over a topology.  `latency` is the per-transfer setup cost
  /// (connection establishment; the paper uses scp per file).  `loopback`
  /// is the rate for src==dst copies, which bypass the NIC (finite, > 0).
  Network(sim::Simulation& sim, Topology topology, SimTime latency = 1e-3,
          Bandwidth loopback = gbps(10));

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The topology (mutable: elasticity adds nodes at runtime).
  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  /// Move `bytes` from `src` to `dst`; resumes when done or failed.
  ///
  /// `streams` > 1 splits the payload into that many parallel flows (the
  /// GridFTP-style striped transfer the paper lists as future work,
  /// Section II.C): each stream competes for fair share independently, so a
  /// striped transfer wins a larger fraction of a contended link.  Each
  /// stream pays the per-connection setup latency.
  sim::Task<TransferResult> transfer(NodeId src, NodeId dst, Bytes bytes,
                                     unsigned streams = 1);

  /// Abort all flows touching `node`; subsequent transfers to/from it fail
  /// immediately.  Mirrors a VM crash.
  void fail_node(NodeId node);

  /// Restore a previously failed node (re-provisioned replacement VM slot).
  void restore_node(NodeId node);

  /// True when the node has been failed.
  bool node_failed(NodeId node) const { return failed_nodes_.count(node) > 0; }

  /// Number of flows currently in the fluid model.
  std::size_t active_flows() const { return live_flows_; }

  /// Number of distinct flow classes the solver currently runs over (streams
  /// and transfers sharing a (src, dst) pair coalesce into one class).
  std::size_t active_flow_classes() const { return active_classes_.size(); }

  /// Per-node accounting of completed traffic.
  NodeTraffic traffic(NodeId node) const;

  /// Snapshot of every activity counter.
  const Counters& counters() const { return counters_; }

  /// Total bytes moved by transfers (including partial bytes of failed ones).
  Bytes total_bytes_moved() const { return counters_.bytes_moved; }

  /// Total number of transfers started.
  std::uint64_t transfers_started() const { return counters_.transfers_started; }

  /// Time integral bookkeeping hook: called with every finished transfer,
  /// on every exit path (completed, failed at setup, failed mid-flight).
  void set_observer(std::function<void(NodeId src, NodeId dst, const TransferResult&)> obs) {
    observer_ = std::move(obs);
  }

  /// Attach a tracer for per-transfer flow spans (bytes, achieved rate,
  /// solver recompute count).  nullptr (the default) disables tracing; the
  /// hot path then only pays a pointer test.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Fluid-solver invocations so far (component re-solves + full solves).
  std::uint64_t solver_invocations() const { return counters_.solves; }

  /// Solves that rebuilt everything (invalidation: topology mutation or node
  /// failure/restore).  solves() - full_solves() is the incremental hit count.
  std::uint64_t solver_full_solves() const { return counters_.full_solves; }

  /// Total classes re-solved across all solves (the dirty-set sizes); the
  /// average dirty set is this over solver_invocations().
  std::uint64_t solver_dirty_classes() const { return counters_.dirty_classes; }

  /// Test hook: after every incremental solve, run a fresh full solve on the
  /// side and check every active class's stored rate against it (throws
  /// FriedaError on divergence).  Off by default; costs a full solve per event.
  void set_differential_check(bool on) { differential_check_ = on; }

 private:
  struct Flow {
    explicit Flow(sim::Simulation& sim) : signal(sim) {}
    Bytes requested = 0;
    double target = 0.0;     ///< class work level at which this flow drains
    double remaining = 0.0;  ///< set at terminal time (partial bytes of failures)
    std::uint64_t seq = 0;   ///< global arrival sequence (heap tie-break)
    std::uint32_t class_slot = 0;
    TransferStatus status = TransferStatus::kCompleted;
    bool done = false;
    sim::Signal signal;
  };
  using FlowPtr = std::shared_ptr<Flow>;

  /// One coalesced (src, dst) flow class: cached constraint vector plus the
  /// persistent fluid state the incremental solver maintains between events.
  struct FlowClass {
    NodeId src = 0;
    NodeId dst = 0;
    std::vector<std::size_t> resources;   ///< persistent resource ids
    std::vector<std::uint32_t> user_pos;  ///< our slot in resource_users_[pid]
    std::uint64_t cached_version = 0;     ///< invalidation stamp for `resources`
    bool cached = false;
    bool active = false;    ///< has live flows (member of active_classes_)
    bool attached = false;  ///< registered in resource_users_
    std::uint32_t active_index = 0;  ///< position in active_classes_
    // Fluid state (valid while active).
    Bandwidth rate = 0.0;    ///< solved per-flow rate
    double work = 0.0;       ///< cumulative bytes delivered per member flow
    SimTime work_time = 0.0; ///< instant `work` was last accrued to
    std::vector<FlowPtr> heap;  ///< min-heap of members by (target, seq)
    // Drain schedule (valid while queued).
    std::uint32_t drain_pos = kNotQueued;  ///< position in drain_queue_
    SimTime completion_time = 0.0;         ///< drain estimate of the queued entry
    // Component membership.
    std::uint64_t visit_epoch = 0;  ///< attached and == solve_epoch_: kept member
  };

  /// One drain-schedule entry.  Equal fire times pop in schedule order, the
  /// order separate simulation events at that time would fire in.
  struct DrainEntry {
    SimTime fire = 0.0;      ///< simulation time the entry fires at
    std::uint64_t seq = 0;   ///< network-local schedule sequence
    std::uint32_t slot = 0;  ///< the class
    bool before(const DrainEntry& o) const {
      return fire < o.fire || (fire == o.fire && seq < o.seq);
    }
  };
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  /// Persistent resource key: the kind plus up to two 32-bit ids, so no two
  /// resources of any topology size share a key.
  struct ResourceKey {
    std::uint8_t kind = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    bool operator==(const ResourceKey&) const = default;
  };
  struct ResourceKeyHash {
    std::size_t operator()(const ResourceKey& k) const {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.a) << 32 | k.b) ^
                                        (static_cast<std::uint64_t>(k.kind) << 56));
    }
  };

  void accrue(FlowClass& cls);  // advance `work` to sim.now() at the old rate
  void activate_class(std::uint32_t slot);
  void deactivate_class(std::uint32_t slot);
  void attach_class(std::uint32_t slot);
  void detach_class(std::uint32_t slot);
  /// Re-solve after a change seeded at `seed_slot`: full solve when the
  /// invalidation version moved, else the seed's connected component only.
  void resolve(std::uint32_t seed_slot);
  void full_solve();
  /// True when the kept component is the seed's (a fresh seed that only
  /// touches members joins it); false means a BFS must collect it.
  bool kept_component_covers(std::uint32_t seed_slot);
  /// BFS into component_, recording its resources in component_resources_.
  void collect_component(std::uint32_t seed_slot);
  /// Shared solve tail over component_: accrue, drain, solve, reschedule.
  void solve_component();
  void update_completion(std::uint32_t slot);
  void on_class_completion(std::uint32_t slot);
  void complete_flow(const FlowPtr& flow, TransferStatus status);
  void run_differential_check();
  /// Differential check: component_ and component_resources_ equal, as sets,
  /// what a fresh BFS from the seed collects.
  void audit_component(std::uint32_t seed_slot) const;

  // ---- drain schedule ----
  /// Queue (or move) the class's drain entry for exact drain estimate `t`.
  void schedule_drain(std::uint32_t slot, SimTime t);
  void unschedule_drain(std::uint32_t slot);
  void drain_place(std::size_t pos, const DrainEntry& entry);
  void drain_sift(std::size_t pos);
  /// Point the simulation event at the heap top (cancel it when empty).
  void arm_drain_event();
  /// The simulation event: process the class at the heap top, then re-arm.
  void on_drain_event();
  void audit_drain_schedule() const;
  /// Close out a transfer on any exit path; `solves_at_start` dates the
  /// transfer's entry for the trace span's recompute count.
  void finish_transfer(NodeId src, NodeId dst, TransferResult& result,
                       std::uint64_t solves_at_start);

  /// Invalidation stamp: changes whenever the topology mutates or a node
  /// fails / is restored.
  std::uint64_t invalidation_version() const {
    return topology_.version() + failure_version_;
  }
  std::uint32_t class_for(NodeId src, NodeId dst);
  std::size_t resource_id(const ResourceKey& key, Bandwidth cap);
  void rebuild_class_resources(FlowClass& cls);

  sim::Simulation& sim_;
  Topology topology_;
  SimTime latency_;
  Bandwidth loopback_;

  std::unordered_set<NodeId> failed_nodes_;
  std::uint64_t failure_version_ = 0;
  std::uint64_t next_flow_seq_ = 0;
  std::size_t live_flows_ = 0;

  // ---- flow-class registry ----
  std::vector<FlowClass> classes_;
  std::unordered_map<std::uint64_t, std::uint32_t> class_of_pair_;  // packed (src,dst)
  std::vector<std::uint32_t> active_classes_;  ///< slots of classes with flows
  std::uint64_t solve_epoch_ = 0;

  // ---- persistent resource registry (rebuilt on invalidation) ----
  std::unordered_map<ResourceKey, std::size_t, ResourceKeyHash> resource_ids_;
  std::vector<Bandwidth> resource_caps_;
  std::vector<std::vector<std::uint32_t>> resource_users_;  ///< active classes per pid
  std::uint64_t resources_version_ = 0;
  bool resources_valid_ = false;

  // ---- reusable solver buffers ----
  std::vector<std::uint32_t> component_;        ///< dirty set (class slots)
  std::vector<std::size_t> component_resources_;  ///< its resource ids, once each
  /// component_ is still one whole connected component, its members stamped
  /// visit_epoch == solve_epoch_ and its resources resource_epoch_ ==
  /// solve_epoch_ (see "Kept component" in the header comment).
  bool component_kept_ = false;
  std::vector<FlowPtr> drained_;                ///< flows completing this solve
  std::vector<std::uint64_t> resource_epoch_;   ///< BFS stamp per resource id
  FairshareScratch fair_scratch_;               ///< indexed by resource id

  // ---- drain schedule ----
  std::vector<DrainEntry> drain_queue_;  ///< binary min-heap by DrainEntry::before
  std::uint64_t next_drain_seq_ = 0;
  sim::MemberTimer<Network, &Network::on_drain_event> drain_event_{sim_, *this};  ///< at the top
  std::uint64_t armed_seq_ = 0;  ///< seq of the entry drain_event_ serves

  std::vector<NodeTraffic> traffic_;  ///< indexed by node id (dense hot path)
  Counters counters_;
  bool differential_check_ = false;
  std::function<void(NodeId, NodeId, const TransferResult&)> observer_;

  // ---- observability tap (null = disabled; see docs/observability.md) ----
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace frieda::net
