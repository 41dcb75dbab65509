// FriedaRun: one end-to-end FRIEDA execution over the simulated cloud.
//
// Wires the paper's three actors together (Figure 1):
//
//   controller  — control plane: initializes the master with the strategy
//                 and partition info, forks workers, relays failure
//                 isolation and elastic add/remove at runtime.
//   master      — execution plane: stages data per the placement strategy,
//                 farms work units to workers, serves real-time data
//                 requests, and accounts every unit to a terminal state.
//   workers     — one per core (multicore) or per VM: request data, execute
//                 the program instance, report status.  Workers are
//                 symmetric: identical code, different data.
//
// All three are coroutine processes on the shared Simulation; protocol
// messages travel through sim::Channels exactly along the arrows of
// Figures 2–4.  The implementation is split by role: run_controller.cpp
// (control plane, master crash and recovery), run_master.cpp (dispatch, unit
// accounting, the workers), run_staging.cpp (staging, disk accounting) and
// run_service.cpp (arrivals, elasticity, telemetry); run.cpp constructs,
// pre-places, instantiates templates, runs and reports.
//
// Lifetime: construct over an already-provisioned VirtualCluster, optionally
// seed replicas (pre-partition-local), optionally schedule failures or
// elasticity on the simulation, then call run() once.  The FriedaRun must
// outlive the simulation run (it registers cluster callbacks).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/stats.hpp"
#include "frieda/app_model.hpp"
#include "frieda/command.hpp"
#include "frieda/protocol.hpp"
#include "frieda/report.hpp"
#include "frieda/template.hpp"
#include "frieda/types.hpp"
#include "obs/run_tap.hpp"
#include "sim/channel.hpp"
#include "storage/file.hpp"

namespace frieda::obs {
class MetricsRegistry;
}  // namespace frieda::obs

namespace frieda::core {

/// Queue-depth-reactive elasticity for the open-loop service mode: the
/// controller periodically samples the master's dispatch-queue depth and
/// provisions an extra VM when a backlog persists (scale-out) or drains and
/// releases one it previously added when the queue stays short (scale-in).
/// Only VMs added by the policy are ever removed, and transitions are gated
/// by a hysteresis window so a single noisy sample cannot flap the fleet.
struct ElasticPolicy {
  bool enabled = false;
  std::size_t scale_out_depth = 16;  ///< queue depth that arms a scale-out
  std::size_t scale_in_depth = 2;    ///< queue depth that arms a scale-in
  SimTime check_interval = 5.0;      ///< seconds between depth samples
  int hysteresis = 3;                ///< consecutive armed samples required
  std::size_t max_extra_vms = 4;     ///< cap on policy-added VMs alive at once
};

/// Per-run configuration (the controller's directives).
struct RunOptions {
  PlacementStrategy strategy = PlacementStrategy::kRealTime;
  AssignmentPolicy assignment = AssignmentPolicy::kRoundRobin;
  PartitionScheme scheme = PartitionScheme::kSingleFile;  ///< for reporting
  bool multicore = true;            ///< one worker per core vs. per VM
  bool requeue_on_failure = false;  ///< paper future-work extension: restart
                                    ///< units lost to failed workers
  int max_attempts = 3;             ///< dispatch attempts per unit (requeue cap)
  int prefetch = 1;                 ///< assignments staged ahead per worker; the
                                    ///< real-time pipelining that interleaves the
                                    ///< transfer and execution phases (Section II.C)
  SimTime dispatch_overhead = 0.005;  ///< master bookkeeping per assignment
  SimTime control_latency = 0.002;    ///< controller->master message latency
  std::string staging_dir = "/data";  ///< prefix for bound input paths
  unsigned transfer_streams = 1;      ///< parallel streams per file transfer
                                      ///< (GridFTP-style striping, Section II.C)
  bool track_disk_capacity = true;    ///< account staged bytes against the
                                      ///< VM-local disks (Section III.A)
  bool evict_processed_inputs = true; ///< real-time mode may evict staged
                                      ///< inputs of completed units when the
                                      ///< local disk fills up
  bool locality_aware = false;        ///< real-time dispatch prefers units
                                      ///< whose inputs already reside on the
                                      ///< requesting worker's node — the
                                      ///< "network topology aware" dispatch
                                      ///< for federated sites (Section I)
  std::size_t locality_scan_depth = 64;  ///< queue prefix searched for a
                                         ///< data-local unit
  bool inputs_at_source = true;       ///< catalog files live in the source
                                      ///< node's input directory; false when
                                      ///< inputs are prior outputs scattered
                                      ///< across worker VMs (workflows) —
                                      ///< seed their locations with
                                      ///< seed_replica() before run()
  // Opt-in observers (nullptr = off, no cost on the hot path).  The run's
  // obs::RunTap emits every lifecycle event to `tracer` and ticks
  // `telemetry` on its interval in simulation time, from serving start to
  // run end; `metrics` gets the run's counters once, when run() returns.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TelemetryProbe* telemetry = nullptr;
  std::vector<SimTime> arrivals;      ///< open-loop service mode: one offset
                                      ///< per unit (seconds after serving
                                      ///< starts, ascending); units enter the
                                      ///< dispatch queue as they arrive
                                      ///< instead of all at once.  Empty =
                                      ///< closed batch (the default).  Only
                                      ///< the queue-fed strategies support
                                      ///< this (real-time, remote-read,
                                      ///< shared-volume).
  ElasticPolicy elastic_policy;       ///< queue-depth-reactive scale-out/in
                                      ///< (open-loop mode only)
  std::shared_ptr<const ExecutionTemplate> exec_template;
                                      ///< captured control-plane decisions to
                                      ///< instantiate from (see template.hpp);
                                      ///< the units passed to the constructor
                                      ///< must be the template's, and decisions
                                      ///< whose captured inputs no longer match
                                      ///< (assignment worker count, staging
                                      ///< dir) are recomputed — counted as
                                      ///< patches.  nullptr = build everything
                                      ///< from scratch (the default).
};

/// One configured execution; see file comment for the protocol walk-through.
class FriedaRun {
 public:
  /// Construct over a provisioned cluster.  `units` come from the
  /// PartitionGenerator; `command` must accept every unit's arity.
  FriedaRun(cluster::VirtualCluster& cluster, const storage::FileCatalog& catalog,
            std::vector<WorkUnit> units, const AppModel& app, CommandTemplate command,
            RunOptions options);
  ~FriedaRun();

  FriedaRun(const FriedaRun&) = delete;
  FriedaRun& operator=(const FriedaRun&) = delete;

  /// Replica ground truth (inspectable by tests; seeded by pre_place_*).
  storage::ReplicaMap& replicas() { return replicas_; }

  /// Seed every input file on the given VMs' nodes — the "data packaged in
  /// the VM image" configuration used by pre-partition-local (Figure 6a).
  void pre_place_all_inputs(const std::vector<cluster::VmId>& vms);

  /// Seed exactly each worker's assigned partition, using the same
  /// assignment the master will compute (pre-partition-local, partitioned).
  void pre_place_partitions(const std::vector<cluster::VmId>& vms);

  /// Seed specific files on one VM (federated scenarios where prior outputs
  /// already live at a remote site).
  void pre_place_files(cluster::VmId vm, const std::vector<storage::FileId>& files);

  /// Register a file that is already resident — and already accounted — on a
  /// VM's disk, e.g. an output a previous run produced there.  Transfers may
  /// then use that VM as a replica source.
  void seed_replica(cluster::VmId vm, storage::FileId file);

  /// Elastic scale-out: provision a VM and join its workers once booted.
  /// Callable before run() or from an ActionPlan callback during it.
  cluster::VmId add_vm(const cluster::InstanceType& type);

  /// Elastic scale-in: drain the VM's workers, then terminate it.
  void remove_vm(cluster::VmId vm);

  /// Crash the master process now and restart it after `recovery_delay`
  /// (the paper's future-work item: "monitoring and recovery of the master
  /// through the controller-master communication channel", Section V.A).
  ///
  /// While down, protocol messages buffer (workers reconnect); work units
  /// whose staging had not yet reached a worker are re-dispatched on
  /// recovery; units already executing on workers are unaffected — the
  /// execution plane survives a control/data-management outage.
  /// Callable from an ActionPlan/arrange hook during the run.
  void crash_master(SimTime recovery_delay);

  /// Execute the scenario to completion; returns the full report.
  /// Must be called exactly once.
  RunReport run();

 private:
  // ---- controller events ----
  struct EvVmFailed { cluster::VmId vm; };
  struct EvVmRunning { cluster::VmId vm; };
  struct EvRemoveVm { cluster::VmId vm; };
  using ControllerEvent = std::variant<EvVmFailed, EvVmRunning, EvRemoveVm>;

  using InboxMessage = std::variant<ControlMessage, WorkerMessage>;

  struct WorkerCtx {
    explicit WorkerCtx(sim::Simulation& sim) : inbox(sim) {}
    WorkerId id = 0;
    cluster::VmId vm = 0;
    unsigned slot = 0;
    sim::Channel<MasterMessage> inbox;
    std::deque<WorkUnitId> preassigned;
    bool isolated = false;
    bool draining = false;
    bool finished = false;  ///< received NoMoreWork / exited
    std::size_t unacked = 0;  ///< committed assignments awaiting ExecStatus
    std::size_t completed = 0;
    SimTime busy_seconds = 0.0;
  };

  /// The master's state for one VM, indexed by VmId.  Dispatches wait on
  /// `ready`, so a record never moves once made (vm_state grows a deque).
  struct VmState {
    explicit VmState(sim::Simulation& sim) : ready(sim) {}
    sim::Signal ready;           ///< the common data is staged (or given up on)
    bool ready_claimed = false;  ///< staging started or `ready` was triggered
    bool invalid = false;        ///< the common data could not be staged
    int staging_active = 0;      ///< input transfers in flight to the VM
    /// Staged files in arrival order: the eviction candidates, oldest first.
    std::deque<storage::FileId> staged_order;
    /// Inputs of the in-flight units pinned here, one entry per pin.  At most
    /// cores x (1 + prefetch) units are in flight on a VM, so a list beats a
    /// counting map.
    std::vector<storage::FileId> pinned;
  };

  /// The master's state for one work unit, indexed by WorkUnitId.
  struct UnitHold {
    cluster::VmId pin_vm = 0;  ///< where its inputs are pinned, when `pinned`
    bool pinned = false;
    bool handed = false;  ///< its assignment reached the worker (survives a
                          ///< master crash)
  };

  // ---- roles ----
  sim::Task<> controller_main();
  sim::Task<> master_main();
  sim::Task<> worker_main(WorkerId id);
  sim::Task<> arrival_pump();   ///< open-loop: inject units at their offsets
  sim::Task<> elastic_main();   ///< queue-depth-reactive scale-out/in
  sim::Task<> telemetry_main(SimTime interval);  ///< tick the attached probe
  /// Snapshot the raw telemetry gauges at sim-now (queue depth, in-flight,
  /// live workers/VMs, cumulative completions/solves/scale events).
  obs::TelemetryTick telemetry_tick_now() const;
  sim::Task<> staging();
  sim::Task<> stage_files_to_node(cluster::VmId vm, std::vector<storage::FileId> files);
  sim::Task<> stage_common_data(cluster::VmId vm);
  sim::Task<> dispatch(WorkerId worker, WorkUnitId unit);

  /// What a transfer to a node is for: a unit's input (dispatch), a file
  /// staged before the farm starts, an input streamed at execution time (not
  /// stored), or the common data.  Decides the timeline label and the span.
  enum class Leg { kInput, kNode, kRemoteRead, kCommon };
  /// Replica source for staging `file` onto `vm`, whose disk already holds
  /// the space for it; releases that space when every replica is lost.
  std::optional<net::NodeId> reserved_source(cluster::VmId vm, storage::FileId file);
  /// Book a transfer of `file` to `vm` that just ended: record it on the
  /// timeline and trace it; then, for the stored legs, release the reserved
  /// space on failure or commit the replica on success.  Returns r.ok().
  bool landed(Leg leg, cluster::VmId vm, WorkerId worker, WorkUnitId unit,
              storage::FileId file, const net::TransferResult& r);
  void release_disk(cluster::VmId vm, Bytes size);

  // ---- master helpers ----
  void handle(const InboxMessage& msg);
  void handle_control(const ControlMessage& msg);
  void handle_worker_msg(const WorkerMessage& msg);
  void top_up(WorkerId worker);  ///< commit assignments up to the credit limit
  void top_up_all();
  std::optional<WorkUnitId> next_unit_for(WorkerCtx& ws);
  void unit_terminal(WorkUnitId unit, UnitStatus status);
  void unit_not_completed(WorkUnitId unit);  // requeue or fail per options
  void release_credit(const UnitRecord& rec);  ///< an in-flight unit left its worker
  void requeue(WorkUnitId unit);  ///< back to pending, whatever the options
  void enqueue(WorkUnitId unit);  ///< append to the shared queue, now pending
  void release_worker(WorkerCtx& ws);  ///< NoMoreWork: the worker is done
  bool any_worker_live() const;
  void isolate_worker(WorkerId worker);
  void drain_worker(WorkerId worker);
  void maybe_terminate_vm(cluster::VmId vm);
  void check_progress_possible();
  void finish_all();
  void recover_master();
  /// Best replica to pull `file` from when staging to `target`: the source
  /// directory if it has it, else a same-site replica, else any replica.
  std::optional<net::NodeId> replica_source(storage::FileId file, net::NodeId target);
  bool inputs_on(WorkUnitId unit, net::NodeId node) const;  ///< all replicated there
  // Disk-capacity accounting (Section III.A: "local disk space is very
  // limited").  reserve_disk evicts unpinned processed inputs when allowed.
  bool reserve_disk(cluster::VmId vm, Bytes size, bool allow_eviction);
  bool evict_one_replica(cluster::VmId vm);
  void pin_unit(WorkUnitId unit, cluster::VmId vm);
  void unpin_unit(WorkUnitId unit);
  void invalidate_unstaged_preassignments();
  bool all_terminal() const { return terminal_count_ == units_.size(); }
  bool worker_live(const WorkerCtx& ws) const;
  bool open_loop() const { return !options_.arrivals.empty(); }
  /// True for the strategies whose workers stream inputs at execution time
  /// instead of having them staged (remote-read, shared-volume).
  bool streams_inputs() const {
    return options_.strategy == PlacementStrategy::kRemoteRead ||
           options_.strategy == PlacementStrategy::kSharedVolume;
  }
  VmState& vm_state(cluster::VmId vm);
  sim::Signal& node_ready(cluster::VmId vm);  ///< for staging: claims the VM
  void fork_workers_on(cluster::VmId vm, std::vector<WorkerId>& out);
  unsigned workers_per_vm(cluster::VmId vm) const;

  // ---- execution-template instantiation (template.hpp) ----
  /// The assignment table for `workers` slots: served from the template
  /// when its captured (policy, worker count) match — recomputed otherwise
  /// (a patch).  Under audit mode the templated table is differentially
  /// checked against a fresh computation.
  std::vector<std::vector<WorkUnitId>> plan_assignment(std::size_t workers);
  /// The AssignWork message for `unit`: a copy of the template's prototype
  /// when the staging decision still matches — freshly bound otherwise.
  AssignWork make_assignment(WorkUnitId unit);

  // ---- fixed inputs ----
  cluster::VirtualCluster& cluster_;
  sim::Simulation& sim_;
  const storage::FileCatalog& catalog_;
  std::vector<WorkUnit> units_;
  const AppModel& app_;
  CommandTemplate command_;
  RunOptions options_;
  std::vector<cluster::VmId> initial_vms_;

  // ---- shared state ----
  storage::ReplicaMap replicas_;
  Timeline timeline_;
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  std::vector<UnitRecord> unit_state_;
  std::deque<WorkUnitId> queue_;    ///< shared dispatch queue (real-time, requeues)
  std::size_t terminal_count_ = 0;
  bool initialized_ = false;        ///< StartMaster + partition + workers received
  bool serving_ = false;            ///< staging done; requests are served live
  bool common_preplaced_ = false;   ///< pre_place_*() seeded the common data too
  bool finished_ = false;
  std::size_t isolated_count_ = 0;
  std::size_t requeues_ = 0;
  std::size_t evictions_ = 0;
  SimTime ready_time_ = 0.0;
  SimTime staging_end_ = 0.0;
  SimTime end_time_ = 0.0;
  bool ran_ = false;

  // Open-loop service state: when serving started (arrival offsets are
  // relative to it), the latency sample set fed by unit_terminal, and the
  // elasticity policy's bookkeeping (VMs it added, scale event counts).
  SimTime serve_start_ = 0.0;
  SampleSet latency_;
  std::vector<cluster::VmId> elastic_live_;  ///< policy-added VMs, oldest first
  std::size_t scale_outs_ = 0;
  std::size_t scale_ins_ = 0;

  sim::Channel<InboxMessage> inbox_;
  sim::Channel<ControllerEvent> events_;

  // Readiness and disk accounting per VM (staged order, pins, transfers in
  // flight) and each unit's pin and hand-over (see VmState, UnitHold).
  std::deque<VmState> vm_state_;
  std::vector<UnitHold> unit_hold_;

  // Master crash/recovery state: the epoch invalidates dispatches that were
  // mid-staging when the master died; those whose assignment was handed to
  // the worker survive the outage.
  bool master_down_ = false;
  std::uint64_t master_epoch_ = 0;
  std::unique_ptr<sim::Signal> master_recovered_;
  std::size_t master_crashes_ = 0;
  std::size_t failure_token_ = 0;  ///< cluster observer registrations,
  std::size_t running_token_ = 0;  ///< released in the destructor

  net::Network::Counters net_baseline_;  ///< network counters when run() began

  // The attached tracer and probe.  options_.metrics is only written at the
  // end of run(), from the plain counters above.
  obs::RunTap tap_;

  // Execution-template state: tmpl_ mirrors options_.exec_template (kept
  // alive by it), audit_ snapshots the store's differential-check mode at
  // construction, and the cp_* counters feed the run anchor span
  // ("cp_instantiations" = control-plane decisions made, "cp_templated" =
  // served from the template, "cp_patches" = recomputed because a captured
  // input diverged).  Deliberately not part of RunReport: templated and
  // from-scratch runs must stay field-identical.
  const ExecutionTemplate* tmpl_ = nullptr;
  bool template_audit_ = false;
  std::uint64_t cp_instantiations_ = 0;
  std::uint64_t cp_templated_ = 0;
  std::uint64_t cp_patches_ = 0;
};

}  // namespace frieda::core
