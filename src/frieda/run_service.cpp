#include "frieda/run.hpp"

#include <set>

#include "common/log.hpp"

namespace frieda::core {

sim::Task<> FriedaRun::arrival_pump() {
  // Inject each unit into the shared dispatch queue at its arrival offset
  // (relative to serving start).  Arrivals keep flowing during a master
  // outage — the queue is the reconnection buffer; recover_master() tops the
  // workers up once the master is back.
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const SimTime at = serve_start_ + options_.arrivals[i];
    if (at > sim_.now()) co_await sim_.delay(at - sim_.now());
    if (finished_) co_return;
    auto& rec = unit_state_[i];
    if (rec.status != UnitStatus::kPending) continue;  // e.g. marked unprocessed
    rec.arrival = sim_.now();
    tap_.born(i, sim_.now());
    queue_.push_back(units_[i].id);
    tap_.service(sim_.now(), obs::event::kArrival, obs::key::kUnit, i, obs::key::kDepth,
                 queue_.size());
    if (!master_down_) top_up_all();
  }
}

sim::Task<> FriedaRun::elastic_main() {
  // Queue-depth-reactive elasticity: sample the dispatch queue every
  // check_interval; a backlog sustained for `hysteresis` samples provisions
  // one extra VM, a sustained lull drains and releases the oldest VM this
  // policy added.  The initial fleet is never touched.
  const auto& ep = options_.elastic_policy;
  const cluster::InstanceType vm_type = cluster_.vm(initial_vms_.front()).type();
  int out_streak = 0;
  int in_streak = 0;
  while (!finished_) {
    co_await sim_.delay(ep.check_interval);
    if (finished_) co_return;
    const std::size_t depth = queue_.size();
    if (depth >= ep.scale_out_depth) {
      in_streak = 0;
      if (++out_streak >= ep.hysteresis) {
        out_streak = 0;
        if (elastic_live_.size() < ep.max_extra_vms) {
          const auto vm = add_vm(vm_type);
          elastic_live_.push_back(vm);
          ++scale_outs_;
          FLOG(kInfo, "elastic", "scale-out: vm " << vm << " provisioned at t=" << sim_.now()
                                                  << " (queue depth " << depth << ")");
          tap_.service(sim_.now(), obs::event::kScaleOut, obs::key::kVm, vm, obs::key::kDepth,
                       depth);
        }
      }
    } else if (depth <= ep.scale_in_depth) {
      out_streak = 0;
      if (++in_streak >= ep.hysteresis) {
        in_streak = 0;
        // Drain-and-release the oldest policy-added VM that is actually up
        // (one still booting is left to join and be considered next time).
        for (auto it = elastic_live_.begin(); it != elastic_live_.end(); ++it) {
          if (!cluster_.vm(*it).running()) continue;
          const auto vm = *it;
          elastic_live_.erase(it);
          ++scale_ins_;
          FLOG(kInfo, "elastic", "scale-in: vm " << vm << " draining at t=" << sim_.now()
                                                 << " (queue depth " << depth << ")");
          tap_.service(sim_.now(), obs::event::kScaleIn, obs::key::kVm, vm, obs::key::kDepth,
                       depth);
          remove_vm(vm);
          break;
        }
      }
    } else {
      out_streak = 0;
      in_streak = 0;
    }
  }
}

obs::TelemetryTick FriedaRun::telemetry_tick_now() const {
  obs::TelemetryTick t;
  t.queue_depth = static_cast<double>(queue_.size());
  std::size_t in_flight = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  std::set<cluster::VmId> vms;
  for (const auto& ws : workers_) {
    in_flight += ws->unacked;
    completed += ws->completed;
    if (worker_live(*ws)) {
      ++live;
      vms.insert(ws->vm);
    }
  }
  t.in_flight = static_cast<double>(in_flight);
  t.active_workers = static_cast<double>(live);
  t.active_vms = static_cast<double>(vms.size());
  t.completed = static_cast<double>(completed);
  t.net_solves =
      static_cast<double>(cluster_.network().solver_invocations() - net_baseline_.solves);
  t.scale_outs = static_cast<double>(scale_outs_);
  t.scale_ins = static_cast<double>(scale_ins_);
  return t;
}

sim::Task<> FriedaRun::telemetry_main(SimTime interval) {
  // Sample the attached probe every interval of simulation time until the
  // run finishes; run() adds the final sample at end_time_ itself.
  while (!finished_) {
    co_await sim_.delay(interval);
    if (finished_) co_return;
    tap_.tick(sim_.now(), [this] { return telemetry_tick_now(); });
  }
}

}  // namespace frieda::core
