#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace frieda::net {

namespace {
// A flow is considered drained when less than this many bytes remain; absorbs
// fluid-model floating point drift.
constexpr double kEpsilonBytes = 1e-6;
// Drains are never scheduled closer than this, so the clock always
// makes representable progress (guards against the asymptotic-drain loop
// where remaining/rate underflows the current time's ulp).
constexpr double kMinTimeStep = 1e-9;

// Resource kinds of the persistent registry key.
enum ResourceKind : std::uint8_t {
  kEgress = 1,
  kIngress,
  kPair,
  kBackbone,
  kLoopback,
  kSite,
  kRack,
};

std::uint64_t class_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
}  // namespace

Network::Network(sim::Simulation& sim, Topology topology, SimTime latency, Bandwidth loopback)
    : sim_(sim), topology_(std::move(topology)), latency_(latency), loopback_(loopback) {
  FRIEDA_CHECK(latency_ >= 0.0, "latency must be >= 0");
  FRIEDA_CHECK(std::isfinite(loopback_) && loopback_ > 0.0,
               "loopback bandwidth must be finite and > 0, got " << loopback_);
}

Network::Counters Network::Counters::since(const Counters& base) const {
  Counters d;
  d.bytes_moved = bytes_moved - base.bytes_moved;
  d.transfers_started = transfers_started - base.transfers_started;
  d.transfers_finished = transfers_finished - base.transfers_finished;
  d.transfers_failed = transfers_failed - base.transfers_failed;
  d.solves = solves - base.solves;
  d.full_solves = full_solves - base.full_solves;
  d.dirty_classes = dirty_classes - base.dirty_classes;
  d.flows_coalesced = flows_coalesced - base.flows_coalesced;
  return d;
}

void Network::finish_transfer(NodeId src, NodeId dst, TransferResult& result,
                              std::uint64_t solves_at_start) {
  result.finished = sim_.now();
  const NodeId hi = std::max(src, dst);
  if (traffic_.size() <= hi) traffic_.resize(std::max<std::size_t>(topology_.node_count(), hi + 1));
  traffic_[src].bytes_sent += result.transferred;
  traffic_[dst].bytes_received += result.transferred;
  counters_.bytes_moved += result.transferred;
  ++counters_.transfers_finished;
  if (!result.ok()) ++counters_.transfers_failed;
  if (tracer_) {
    const double dur = result.duration();
    obs::TraceEvent ev;
    ev.name = "xfer " + std::to_string(src) + "->" + std::to_string(dst);
    ev.cat = "flow";
    ev.process = obs::kNetworkTrack;
    ev.track = dst;
    ev.start = result.started;
    ev.end = result.finished;
    ev.args = {{"bytes", std::to_string(result.transferred)},
               {"requested", std::to_string(result.requested)},
               {"rate_bps", std::to_string(dur > 0.0
                                ? static_cast<double>(result.transferred) / dur
                                : 0.0)},
               {"recomputes", std::to_string(counters_.solves - solves_at_start)},
               {"status", result.ok() ? "ok" : "failed"}};
    tracer_->span(std::move(ev));
  }
  if (observer_) observer_(src, dst, result);
}

std::uint32_t Network::class_for(NodeId src, NodeId dst) {
  const auto [it, inserted] = class_of_pair_.emplace(
      class_key(src, dst), static_cast<std::uint32_t>(classes_.size()));
  if (inserted) {
    FlowClass cls;
    cls.src = src;
    cls.dst = dst;
    classes_.push_back(std::move(cls));
  }
  return it->second;
}

std::size_t Network::resource_id(const ResourceKey& key, Bandwidth cap) {
  const auto [it, inserted] = resource_ids_.emplace(key, resource_caps_.size());
  if (inserted) {
    resource_caps_.push_back(cap);
    resource_users_.emplace_back();
    resource_epoch_.push_back(0);
  }
  return it->second;
}

void Network::rebuild_class_resources(FlowClass& cls) {
  cls.resources.clear();
  if (cls.src == cls.dst) {
    // Loopback copies share the node's loopback device, not the NIC.
    cls.resources.push_back(resource_id({kLoopback, cls.src, 0}, loopback_));
  } else {
    cls.resources.push_back(resource_id({kEgress, cls.src, 0}, topology_.egress(cls.src)));
    cls.resources.push_back(resource_id({kIngress, cls.dst, 0}, topology_.ingress(cls.dst)));
    const Bandwidth pair_cap = topology_.pair_limit(cls.src, cls.dst);
    if (pair_cap != std::numeric_limits<Bandwidth>::infinity()) {
      cls.resources.push_back(resource_id({kPair, cls.src, cls.dst}, pair_cap));
    }
    if (topology_.has_rack_uplinks()) {
      // Hierarchy level between node and core: a flow leaving (or entering) a
      // rack traverses that rack's shared uplink; intra-rack traffic bypasses
      // it.  Both lookups are O(1) vector indexing.
      const RackId ra = topology_.rack(cls.src);
      const RackId rb = topology_.rack(cls.dst);
      if (ra != rb) {
        const Bandwidth up_a = topology_.rack_uplink(ra);
        if (up_a != std::numeric_limits<Bandwidth>::infinity()) {
          cls.resources.push_back(resource_id({kRack, ra, 0}, up_a));
        }
        const Bandwidth up_b = topology_.rack_uplink(rb);
        if (up_b != std::numeric_limits<Bandwidth>::infinity()) {
          cls.resources.push_back(resource_id({kRack, rb, 0}, up_b));
        }
      }
    }
    if (topology_.has_backbone_cap()) {
      cls.resources.push_back(resource_id({kBackbone, 0, 0}, topology_.backbone_capacity()));
    }
    if (topology_.has_intersite_caps()) {
      const SiteId sa = topology_.site(cls.src);
      const SiteId sb = topology_.site(cls.dst);
      const Bandwidth wan = topology_.intersite_capacity(sa, sb);
      if (wan != std::numeric_limits<Bandwidth>::infinity()) {
        cls.resources.push_back(resource_id({kSite, std::min(sa, sb), std::max(sa, sb)}, wan));
      }
    }
  }
  cls.cached_version = invalidation_version();
  cls.cached = true;
}

sim::Task<TransferResult> Network::transfer(NodeId src, NodeId dst, Bytes bytes,
                                            unsigned streams) {
  FRIEDA_CHECK(src < topology_.node_count() && dst < topology_.node_count(),
               "transfer endpoints out of range");
  FRIEDA_CHECK(streams >= 1, "transfer needs at least one stream");
  ++counters_.transfers_started;
  const std::uint64_t solves_at_start = counters_.solves;
  TransferResult result;
  result.requested = bytes;
  result.started = sim_.now();

  if (node_failed(src) || node_failed(dst)) {
    result.status = TransferStatus::kFailed;
    finish_transfer(src, dst, result, solves_at_start);
    co_return result;
  }
  // Each stream pays connection setup; streams are established sequentially
  // (control traffic), then run in parallel.
  if (latency_ > 0.0) co_await sim_.delay(latency_ * streams);
  if (node_failed(src) || node_failed(dst)) {  // failed during setup
    result.status = TransferStatus::kFailed;
    finish_transfer(src, dst, result, solves_at_start);
    co_return result;
  }
  if (bytes == 0) {
    finish_transfer(src, dst, result, solves_at_start);
    co_return result;
  }

  streams = static_cast<unsigned>(
      std::min<Bytes>(streams, std::max<Bytes>(bytes, 1)));  // no empty streams
  const std::uint32_t slot = class_for(src, dst);
  FlowClass& cls = classes_[slot];
  if (cls.active) {
    accrue(cls);  // targets below are relative to the class's work *now*
  } else {
    activate_class(slot);
  }
  const auto heap_less = [](const FlowPtr& a, const FlowPtr& b) {
    return a->target > b->target || (a->target == b->target && a->seq > b->seq);
  };
  std::vector<FlowPtr> stream_flows;
  stream_flows.reserve(streams);
  for (unsigned s = 0; s < streams; ++s) {
    const Bytes share = bytes / streams + (s < bytes % streams ? 1 : 0);
    auto flow = std::make_shared<Flow>(sim_);
    flow->requested = share;
    flow->target = cls.work + static_cast<double>(share);
    flow->seq = next_flow_seq_++;
    flow->class_slot = slot;
    cls.heap.push_back(flow);
    std::push_heap(cls.heap.begin(), cls.heap.end(), heap_less);
    stream_flows.push_back(std::move(flow));
  }
  live_flows_ += streams;
  resolve(slot);
  arm_drain_event();

  for (const auto& flow : stream_flows) co_await flow->signal.wait();

  result.status = TransferStatus::kCompleted;
  result.transferred = 0;
  for (const auto& flow : stream_flows) {
    if (flow->status == TransferStatus::kFailed) result.status = TransferStatus::kFailed;
    if (flow->status == TransferStatus::kCompleted) {
      result.transferred += flow->requested;
    } else {
      // Partial bytes of an aborted flow; the fluid model can overshoot the
      // request by a fraction of a byte, so clamp to what was asked for.
      const double moved =
          static_cast<double>(flow->requested) - std::max(flow->remaining, 0.0);
      result.transferred +=
          std::min<Bytes>(flow->requested, static_cast<Bytes>(moved + 0.5));
    }
  }
  finish_transfer(src, dst, result, solves_at_start);
  co_return result;
}

void Network::accrue(FlowClass& cls) {
  const SimTime now = sim_.now();
  const SimTime dt = now - cls.work_time;
  if (dt > 0.0 && cls.rate > 0.0) cls.work += cls.rate * dt;
  cls.work_time = now;
}

void Network::activate_class(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  cls.active = true;
  cls.active_index = static_cast<std::uint32_t>(active_classes_.size());
  active_classes_.push_back(slot);
  cls.rate = 0.0;
  cls.work = 0.0;
  cls.work_time = sim_.now();
}

void Network::deactivate_class(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  if (cls.attached) detach_class(slot);
  unschedule_drain(slot);
  cls.active = false;
  cls.rate = 0.0;
  // Swap-remove from active_classes_, fixing the moved class's back-pointer.
  const std::uint32_t last = active_classes_.back();
  active_classes_[cls.active_index] = last;
  classes_[last].active_index = cls.active_index;
  active_classes_.pop_back();
}

void Network::attach_class(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  cls.user_pos.resize(cls.resources.size());
  for (std::size_t i = 0; i < cls.resources.size(); ++i) {
    auto& users = resource_users_[cls.resources[i]];
    cls.user_pos[i] = static_cast<std::uint32_t>(users.size());
    users.push_back(slot);
  }
  cls.attached = true;
}

void Network::detach_class(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  std::size_t still_shared = 0;  // resources left with other users
  for (std::size_t i = 0; i < cls.resources.size(); ++i) {
    const std::size_t pid = cls.resources[i];
    auto& users = resource_users_[pid];
    const std::uint32_t pos = cls.user_pos[i];
    const std::uint32_t moved = users.back();
    users[pos] = moved;
    users.pop_back();
    if (!users.empty()) ++still_shared;
    if (moved != slot) {
      // Tell the moved class where it lives now (its resource lists are
      // short — at most egress/ingress/pair/2 uplinks/backbone/site).
      FlowClass& other = classes_[moved];
      for (std::size_t j = 0; j < other.resources.size(); ++j) {
        if (other.resources[j] == pid) {
          other.user_pos[j] = pos;
          break;
        }
      }
    }
  }
  cls.attached = false;
  // A leaf — a class that shared at most one resource with the rest — leaves
  // its component connected.  Through two shared resources it may have been
  // the only bridge between them: the component may have split.
  if (still_shared >= 2) component_kept_ = false;
}

void Network::resolve(std::uint32_t seed_slot) {
  const std::uint64_t version = invalidation_version();
  if (!resources_valid_ || resources_version_ != version) {
    full_solve();
    return;
  }
  if (!kept_component_covers(seed_slot)) collect_component(seed_slot);
  if (differential_check_) audit_component(seed_slot);
  solve_component();
}

bool Network::kept_component_covers(std::uint32_t seed_slot) {
  if (!component_kept_) return false;
  FlowClass& cls = classes_[seed_slot];
  if (cls.attached) return cls.visit_epoch == solve_epoch_;
  // A freshly activated class joins without a BFS only when every class on
  // its resources is already a member, and there is at least one: it then
  // bridges nothing, and its resources no other class uses are new to the
  // component.
  if (!cls.cached || cls.cached_version != resources_version_) rebuild_class_resources(cls);
  bool has_neighbour = false;
  for (const std::size_t pid : cls.resources) {
    for (const std::uint32_t user : resource_users_[pid]) {
      if (classes_[user].visit_epoch != solve_epoch_) return false;
      has_neighbour = true;
    }
  }
  if (!has_neighbour) return false;
  attach_class(seed_slot);
  cls.visit_epoch = solve_epoch_;
  component_.push_back(seed_slot);
  for (const std::size_t pid : cls.resources) {
    if (resource_epoch_[pid] == solve_epoch_) continue;
    resource_epoch_[pid] = solve_epoch_;
    component_resources_.push_back(pid);
  }
  return true;
}

void Network::collect_component(std::uint32_t seed_slot) {
  const std::uint64_t bfs_epoch = ++solve_epoch_;
  component_.clear();
  component_resources_.clear();
  classes_[seed_slot].visit_epoch = bfs_epoch;
  component_.push_back(seed_slot);
  for (std::size_t i = 0; i < component_.size(); ++i) {
    const std::uint32_t slot = component_[i];
    FlowClass& cls = classes_[slot];
    if (!cls.attached) {
      // Freshly (re)activated class: cache its constraint vector against the
      // current registry and register it with its resources.
      if (!cls.cached || cls.cached_version != resources_version_) {
        rebuild_class_resources(cls);
      }
      attach_class(slot);
    }
    for (const std::size_t pid : cls.resources) {
      if (resource_epoch_[pid] == bfs_epoch) continue;
      resource_epoch_[pid] = bfs_epoch;
      component_resources_.push_back(pid);
      for (const std::uint32_t user : resource_users_[pid]) {
        FlowClass& other = classes_[user];
        if (other.visit_epoch == bfs_epoch) continue;
        other.visit_epoch = bfs_epoch;
        component_.push_back(user);
      }
    }
  }
  component_kept_ = true;
}

void Network::full_solve() {
  const std::uint64_t version = invalidation_version();
  // Rebuild the resource registry from scratch: capacities may have changed
  // (set_nic and friends) and the key → id mapping with them.
  resource_ids_.clear();
  resource_caps_.clear();
  resource_users_.clear();
  resource_epoch_.clear();
  resources_version_ = version;
  resources_valid_ = true;
  component_ = active_classes_;
  for (const std::uint32_t slot : component_) {
    FlowClass& cls = classes_[slot];
    cls.attached = false;  // the user lists above are gone
    rebuild_class_resources(cls);
    attach_class(slot);
  }
  component_resources_.resize(resource_caps_.size());
  std::iota(component_resources_.begin(), component_resources_.end(), std::size_t{0});
  component_kept_ = false;  // every active class: possibly many components
  ++counters_.full_solves;
  solve_component();
}

void Network::solve_component() {
  const auto heap_less = [](const FlowPtr& a, const FlowPtr& b) {
    return a->target > b->target || (a->target == b->target && a->seq > b->seq);
  };
  // Bring every dirty class's work level up to now at its old rate, then
  // drain the flows that have reached their target.
  drained_.clear();
  for (const std::uint32_t slot : component_) {
    FlowClass& cls = classes_[slot];
    accrue(cls);
    while (!cls.heap.empty()) {
      const FlowPtr& f = cls.heap.front();
      const double remaining = f->target - cls.work;
      if (remaining <= kEpsilonBytes ||
          (cls.rate > 0.0 && remaining <= cls.rate * kMinTimeStep)) {
        drained_.push_back(f);
        std::pop_heap(cls.heap.begin(), cls.heap.end(), heap_less);
        cls.heap.pop_back();
      } else {
        break;
      }
    }
  }
  if (!drained_.empty()) {
    // Complete in global arrival order so waiter wake-ups match the order
    // the pre-incremental implementation produced (it swept a flat flow list).
    std::sort(drained_.begin(), drained_.end(),
              [](const FlowPtr& a, const FlowPtr& b) { return a->seq < b->seq; });
    live_flows_ -= drained_.size();
    for (const auto& flow : drained_) complete_flow(flow, TransferStatus::kCompleted);
    drained_.clear();
  }
  // Emptied classes leave the active set (and the constraint graph).
  std::size_t keep = 0;
  for (const std::uint32_t slot : component_) {
    if (classes_[slot].heap.empty()) {
      deactivate_class(slot);
    } else {
      component_[keep++] = slot;
    }
  }
  if (keep < component_.size()) {
    component_.resize(keep);
    // Resources the departed classes used alone leave the component too.
    std::erase_if(component_resources_, [this](std::size_t pid) {
      if (!resource_users_[pid].empty()) return false;
      resource_epoch_[pid] = 0;
      return true;
    });
  }
  if (component_.empty()) return;

  // Solve in place: the component's classes and persistent resource ids.
  const std::size_t nc = component_.size();
  std::size_t component_flows = 0;
  for (const std::uint32_t slot : component_) component_flows += classes_[slot].heap.size();
  ++counters_.solves;
  counters_.dirty_classes += nc;
  counters_.flows_coalesced += component_flows - nc;
  progressive_fill(
      resource_caps_, component_resources_, nc,
      [this](std::size_t i) {
        FlowClass& cls = classes_[component_[i]];
        return FillClass{cls.resources, cls.heap.size(), cls.rate};
      },
      fair_scratch_);

  for (const std::uint32_t slot : component_) update_completion(slot);

  if (differential_check_) run_differential_check();
}

void Network::update_completion(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  // Every class crosses a finite NIC or loopback device, and every capacity
  // is positive: each class has a positive bottleneck share.
  FRIEDA_CHECK(cls.rate > 0.0,
               "flow class " << cls.src << "->" << cls.dst << " solved to rate " << cls.rate);
  const SimTime now = sim_.now();  // == cls.work_time after accrue()
  const SimTime t =
      now + std::max((cls.heap.front()->target - cls.work) / cls.rate, kMinTimeStep);
  // Keep a queued entry when the drain moved later (a rate drop): it fires
  // early, finds nothing drained, and re-queues itself at the exact time
  // without a solve (on_class_completion's fast path).  Moving O(component)
  // entries per solve is what this avoids.
  if (cls.drain_pos != kNotQueued && t >= cls.completion_time) return;
  schedule_drain(slot, t);
}

void Network::on_class_completion(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  // Fast re-arm: the entry fired before the actual drain (its estimate went
  // stale when the class's rate dropped).  If nothing invalidated the rates
  // since — any solve touching this component would have updated cls.rate
  // and this entry — the stored rate gives the exact drain time, so re-queue
  // without re-solving anything.
  if (resources_valid_ && resources_version_ == invalidation_version() &&
      cls.rate > 0.0 && !cls.heap.empty()) {
    accrue(cls);
    const double remaining = cls.heap.front()->target - cls.work;
    if (remaining > kEpsilonBytes && remaining > cls.rate * kMinTimeStep) {
      schedule_drain(slot, sim_.now() + std::max(remaining / cls.rate, kMinTimeStep));
      return;
    }
  }
  // A real drain (or an invalidation): the sweep covers the whole component,
  // so simultaneous completions behind one bottleneck resolve in a single
  // pass (their own entries then leave the schedule with their classes).
  resolve(slot);
}

void Network::schedule_drain(std::uint32_t slot, SimTime t) {
  FlowClass& cls = classes_[slot];
  cls.completion_time = t;
  // The time a simulation event scheduled `t - now` ahead fires at.
  const SimTime now = sim_.now();
  const DrainEntry entry{now + std::max(t - now, 0.0), next_drain_seq_++, slot};
  if (cls.drain_pos == kNotQueued) {
    cls.drain_pos = static_cast<std::uint32_t>(drain_queue_.size());
    drain_queue_.push_back(entry);
  } else {
    drain_queue_[cls.drain_pos] = entry;
  }
  drain_sift(cls.drain_pos);
}

void Network::unschedule_drain(std::uint32_t slot) {
  FlowClass& cls = classes_[slot];
  if (cls.drain_pos == kNotQueued) return;
  const std::size_t pos = cls.drain_pos;
  cls.drain_pos = kNotQueued;
  const DrainEntry last = drain_queue_.back();
  drain_queue_.pop_back();
  if (pos == drain_queue_.size()) return;  // removed the last entry
  drain_place(pos, last);
  drain_sift(pos);
}

void Network::drain_place(std::size_t pos, const DrainEntry& entry) {
  drain_queue_[pos] = entry;
  classes_[entry.slot].drain_pos = static_cast<std::uint32_t>(pos);
}

void Network::drain_sift(std::size_t pos) {
  const DrainEntry entry = drain_queue_[pos];
  while (pos > 0) {  // up
    const std::size_t parent = (pos - 1) / 2;
    if (!entry.before(drain_queue_[parent])) break;
    drain_place(pos, drain_queue_[parent]);
    pos = parent;
  }
  const std::size_t n = drain_queue_.size();
  for (;;) {  // down
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && drain_queue_[child + 1].before(drain_queue_[child])) ++child;
    if (!drain_queue_[child].before(entry)) break;
    drain_place(pos, drain_queue_[child]);
    pos = child;
  }
  drain_place(pos, entry);
}

void Network::arm_drain_event() {
  if (drain_queue_.empty()) {
    drain_event_.disarm();
  } else {
    const DrainEntry& top = drain_queue_.front();
    if (!drain_event_.armed() || armed_seq_ != top.seq) {
      // The top left or moved earlier: the event follows it.
      armed_seq_ = top.seq;
      drain_event_.arm_at(top.fire);
    }
  }
  if (differential_check_) audit_drain_schedule();
}

void Network::on_drain_event() {
  // The event fires at the heap top's time.  It processes that one class;
  // another class due at the same instant gets an event of its own from the
  // re-arm, so every processed class is one fired simulation event, exactly
  // as with one event per class.
  const std::uint32_t slot = drain_queue_.front().slot;
  unschedule_drain(slot);
  on_class_completion(slot);
  arm_drain_event();
}

void Network::complete_flow(const FlowPtr& flow, TransferStatus status) {
  flow->done = true;
  flow->status = status;
  if (status == TransferStatus::kCompleted) flow->remaining = 0.0;
  flow->signal.trigger();
}

void Network::run_differential_check() {
  // Fresh, from-first-principles solve over every active class, compared
  // against the incrementally maintained rates.  Deliberately uses local
  // buffers so it cannot disturb the persistent state it is auditing.
  std::unordered_map<std::size_t, std::size_t> dense;
  std::vector<Bandwidth> caps;
  std::vector<WeightedFlowConstraints> classes;
  classes.reserve(active_classes_.size());
  for (const std::uint32_t slot : active_classes_) {
    const FlowClass& cls = classes_[slot];
    WeightedFlowConstraints wc;
    for (const std::size_t pid : cls.resources) {
      const auto [it, inserted] = dense.emplace(pid, caps.size());
      if (inserted) caps.push_back(resource_caps_[pid]);
      wc.resources.push_back(it->second);
    }
    wc.count = cls.heap.size();
    classes.push_back(std::move(wc));
  }
  const std::vector<Bandwidth> rates = max_min_fair_rates_weighted(caps, classes);
  for (std::size_t i = 0; i < active_classes_.size(); ++i) {
    const FlowClass& cls = classes_[active_classes_[i]];
    const double tol = 1e-9 * std::max(1.0, rates[i]);
    FRIEDA_CHECK(std::abs(cls.rate - rates[i]) <= tol,
                 "incremental rate diverged from full solve for class "
                     << cls.src << "->" << cls.dst << ": incremental " << cls.rate
                     << " vs full " << rates[i]);
  }
}

void Network::audit_component(std::uint32_t seed_slot) const {
  // A fresh BFS from the seed, in local buffers, must find exactly the
  // classes and resources the solve is about to use.
  std::vector<unsigned char> in_class(classes_.size(), 0);
  std::vector<unsigned char> in_resource(resource_caps_.size(), 0);
  std::vector<std::uint32_t> queue{seed_slot};
  std::size_t resources = 0;
  in_class[seed_slot] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const std::size_t pid : classes_[queue[i]].resources) {
      if (in_resource[pid]) continue;
      in_resource[pid] = 1;
      ++resources;
      for (const std::uint32_t user : resource_users_[pid]) {
        if (in_class[user]) continue;
        in_class[user] = 1;
        queue.push_back(user);
      }
    }
  }
  const FlowClass& seed = classes_[seed_slot];
  FRIEDA_CHECK(component_.size() == queue.size() && component_resources_.size() == resources,
               "component of class " << seed.src << "->" << seed.dst << ": solving "
                   << component_.size() << " classes over " << component_resources_.size()
                   << " resources, a fresh BFS finds " << queue.size() << " over " << resources);
  // Equal sizes, and each member found once in the BFS set: equal sets.
  for (const std::uint32_t slot : component_) {
    FRIEDA_CHECK(in_class[slot], "component of class " << seed.src << "->" << seed.dst
                                     << " holds class " << classes_[slot].src << "->"
                                     << classes_[slot].dst << " a fresh BFS does not reach"
                                     << " (or holds it twice)");
    in_class[slot] = 0;
  }
  for (const std::size_t pid : component_resources_) {
    FRIEDA_CHECK(in_resource[pid], "component of class " << seed.src << "->" << seed.dst
                                       << " holds resource " << pid
                                       << " a fresh BFS does not reach (or holds it twice)");
    in_resource[pid] = 0;
  }
}

void Network::audit_drain_schedule() const {
  // Every active class with a positive rate is queued exactly once, and its
  // entry is never later than its exact drain time (a lazy entry may only be
  // early); inactive and zero-rate classes are not queued.
  const SimTime now = sim_.now();
  std::size_t queued = 0;
  for (const std::uint32_t slot : active_classes_) {
    const FlowClass& cls = classes_[slot];
    const std::size_t pos = cls.drain_pos;
    const bool in_queue = pos != kNotQueued;
    FRIEDA_CHECK(in_queue == (cls.rate > 0.0),
                 "drain schedule: class " << cls.src << "->" << cls.dst << " with rate "
                                          << cls.rate << (in_queue ? " is" : " is not")
                                          << " queued");
    if (!in_queue) continue;
    ++queued;
    FRIEDA_CHECK(pos < drain_queue_.size() && drain_queue_[pos].slot == slot,
                 "drain schedule: stale position for class " << cls.src << "->" << cls.dst);
    const double work = cls.work + cls.rate * std::max(now - cls.work_time, 0.0);
    const SimTime exact = now + (cls.heap.front()->target - work) / cls.rate;
    const SimTime fire = drain_queue_[pos].fire;
    FRIEDA_CHECK(fire <= exact + kMinTimeStep + 1e-12 * std::max(1.0, std::abs(exact)),
                 "drain schedule: class " << cls.src << "->" << cls.dst << " queued at "
                                          << fire << " after its drain at " << exact);
  }
  FRIEDA_CHECK(queued == drain_queue_.size(),
               "drain schedule holds " << drain_queue_.size() << " entries for " << queued
                                       << " draining classes");
  for (std::size_t i = 1; i < drain_queue_.size(); ++i) {
    FRIEDA_CHECK(!drain_queue_[i].before(drain_queue_[(i - 1) / 2]),
                 "drain schedule: heap order broken at " << i);
  }
  FRIEDA_CHECK(drain_event_.armed() == !drain_queue_.empty(),
               "drain schedule: simulation event "
                   << (drain_event_.armed() ? "armed for an empty schedule" : "not armed"));
  FRIEDA_CHECK(drain_queue_.empty() || armed_seq_ == drain_queue_.front().seq,
               "drain schedule: simulation event is not armed at the heap top");
}

void Network::fail_node(NodeId node) {
  if (!failed_nodes_.insert(node).second) return;
  ++failure_version_;
  FLOG(kDebug, "net", "node " << node << " failed; aborting its flows");
  // Abort every flow touching the node, crediting the bytes its class's old
  // rate delivered up to now (the awaiting transfer reports partial bytes).
  component_ = active_classes_;  // snapshot: deactivation mutates the list
  component_kept_ = false;
  for (const std::uint32_t slot : component_) {
    FlowClass& cls = classes_[slot];
    if (cls.src != node && cls.dst != node) continue;
    accrue(cls);
    live_flows_ -= cls.heap.size();
    for (const auto& flow : cls.heap) {
      flow->remaining = std::max(flow->target - cls.work, 0.0);
      complete_flow(flow, TransferStatus::kFailed);
    }
    cls.heap.clear();
    deactivate_class(slot);
  }
  // The failure bumped the invalidation version: rebuild and re-solve the
  // survivors globally (their constraint vectors may now differ).
  if (!active_classes_.empty()) full_solve();
  arm_drain_event();
}

void Network::restore_node(NodeId node) {
  if (failed_nodes_.erase(node) > 0) ++failure_version_;
}

NodeTraffic Network::traffic(NodeId node) const {
  return node < traffic_.size() ? traffic_[node] : NodeTraffic{};
}

}  // namespace frieda::net
