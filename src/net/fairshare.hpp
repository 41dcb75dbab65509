// Max-min fair bandwidth allocation (progressive filling / water-filling).
//
// Each active flow traverses a set of capacity-constrained resources (source
// NIC egress, destination NIC ingress, optionally a provisioned pair limit
// and a backbone cap).  The solver assigns every flow the max-min fair rate:
// repeatedly find the most-constrained resource, freeze its flows at the
// equal share it can afford, remove them, and continue.  This is the standard
// fluid model for TCP-like sharing and is what makes the master's NIC the
// staging bottleneck in the paper's experiments (Section IV).
//
// Every entry point runs the one progressive-filling loop, progressive_fill:
//   * max_min_fair_rates           — one FlowConstraints per flow (legacy);
//   * max_min_fair_rates_weighted  — flows with identical resource sets are
//     coalesced into a counted class, so the progressive-filling rounds cost
//     O(distinct classes) instead of O(flows);
//   * the network model calls progressive_fill directly, in place on its
//     persistent resource ids and flow classes: the N parallel streams of one
//     src→dst transfer, or many transfers over the same pair, are a single
//     class, and only the dirty component's resources are touched.
//
// Each filling round decides its freeze set once, against the equal shares
// at the start of the round (see progressive_fill).  Deciding class by class
// against residuals that earlier freezes of the round had already reduced is
// the same rule in exact arithmetic — freezing flows at the smallest share
// never lowers another resource's share — so the two differ only if rounding
// drift moves a share across the 1e-12 tie tolerance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace frieda::net {

/// One flow's demand: the indices of the resources it traverses.
struct FlowConstraints {
  std::vector<std::size_t> resources;
};

/// A coalesced class of `count` identical flows that all traverse exactly the
/// same resources.  Each member flow receives the class's per-flow rate.
struct WeightedFlowConstraints {
  std::vector<std::size_t> resources;
  std::uint64_t count = 1;
};

/// Reusable solver buffers; pass the same instance across calls to avoid
/// reallocating per-solve scratch state (the network re-solves on every flow
/// arrival/departure).  `residual`, `share` and `unfrozen` are indexed by
/// resource id and grow to the largest capacity table seen; `order` holds
/// the class indices, the unfrozen ones first.
struct FairshareScratch {
  std::vector<double> residual;
  std::vector<double> share;  ///< equal share at the start of the current round
  std::vector<std::uint64_t> unfrozen;
  std::vector<std::size_t> order;
};

/// One class as progressive filling sees it: the ids of the resources it
/// crosses, its member count, and where its per-flow rate is written.
struct FillClass {
  const std::vector<std::size_t>& resources;
  std::uint64_t count;
  Bandwidth& rate;
};

/// Progressive filling over coalesced classes — the single implementation
/// behind every solver entry point.
///
/// `resources` lists, once each, every resource id the classes cross;
/// `capacities` is indexed by those ids (it may hold more resources than the
/// list: only listed ids are read, so solving one component of a large
/// table costs O(component)).  `class_at(c)` returns the FillClass of class
/// c in [0, nc).  Every class's rate is written: the max-min fair per-flow
/// share, or 0 for an orphan class (every resource unconstrained).
///
/// Each round scans the resources once, storing every resource's equal share
/// (residual / unfrozen flows), and takes the smallest as the bottleneck.  A
/// class freezes in the round iff one of its resources had a share within
/// 1e-12 of the bottleneck *at the start of the round*: the freeze set is
/// decided once, against the scan (see the file comment for how this
/// relates to re-dividing reduced residuals).
///
/// Freezing a class subtracts the share once per member rather than
/// count*share in one multiply: every member of a round's freeze set receives
/// exactly the round's bottleneck share, so the repeated subtraction keeps the
/// residuals bit-identical to running the flat per-flow solver — coalescing is
/// a pure speedup, not a semantic change.  Only residuals that are read again
/// are updated: none after the final round, and never one whose last unfrozen
/// flow froze (every read of a residual is guarded by a non-zero unfrozen
/// count).
template <typename ResourceIds, typename ClassAt>
void progressive_fill(const std::vector<Bandwidth>& capacities, const ResourceIds& resources,
                      std::size_t nc, ClassAt&& class_at, FairshareScratch& scratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Residual capacity per resource and number of unfrozen flows crossing it.
  auto& residual = scratch.residual;
  auto& share = scratch.share;
  auto& unfrozen_count = scratch.unfrozen;
  auto& order = scratch.order;
  if (residual.size() < capacities.size()) {
    residual.resize(capacities.size());
    share.resize(capacities.size());
    unfrozen_count.resize(capacities.size());
  }
  for (const std::size_t r : resources) {
    residual[r] = capacities[r];
    unfrozen_count[r] = 0;
  }
  order.resize(nc);
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t c = 0; c < nc; ++c) {
    const FillClass cls = class_at(c);
    FRIEDA_CHECK(!cls.resources.empty(), "flow class " << c << " traverses no resources");
    for (const std::size_t r : cls.resources) {
      FRIEDA_CHECK(r < capacities.size(),
                   "flow class " << c << " references resource " << r << " out of range");
      unfrozen_count[r] += cls.count;
    }
    cls.rate = 0.0;
  }

  std::size_t remaining = nc;
  while (remaining > 0) {
    // Find the bottleneck resource: smallest equal share among resources
    // that still carry unfrozen flows.
    double best_share = kInf;
    for (const std::size_t r : resources) {
      if (unfrozen_count[r] == 0) {
        share[r] = kInf;
        continue;
      }
      share[r] = std::max(residual[r], 0.0) / static_cast<double>(unfrozen_count[r]);
      best_share = std::min(best_share, share[r]);
    }
    if (best_share == kInf) break;  // orphan flows

    // Freeze every unfrozen class that crosses a resource at the bottleneck
    // share.  (All resources whose share equals best_share are saturated.)
    // A frozen class moves behind the unfrozen prefix of `order`; the
    // decisions do not depend on the visiting order.
    const double limit = best_share * (1.0 + 1e-12);
    const std::size_t unfrozen_before = remaining;
    for (std::size_t i = 0; i < remaining;) {
      const FillClass cls = class_at(order[i]);
      const bool bottlenecked = std::any_of(cls.resources.begin(), cls.resources.end(),
                                            [&](std::size_t r) { return share[r] <= limit; });
      if (!bottlenecked) {
        ++i;
        continue;
      }
      cls.rate = best_share;
      std::swap(order[i], order[--remaining]);
    }
    FRIEDA_CHECK(remaining < unfrozen_before, "max-min solver failed to make progress");
    if (remaining == 0) break;  // the final round's residuals are never read

    // Retire the round's classes, order[remaining, unfrozen_before): their
    // flows leave the unfrozen counts, then each resource that still carries
    // unfrozen flows loses the share once per member.
    const auto round_begin = order.begin() + static_cast<std::ptrdiff_t>(remaining);
    const auto round_end = order.begin() + static_cast<std::ptrdiff_t>(unfrozen_before);
    for (auto it = round_begin; it != round_end; ++it) {
      const FillClass cls = class_at(*it);
      for (const std::size_t r : cls.resources) unfrozen_count[r] -= cls.count;
    }
    for (auto it = round_begin; it != round_end; ++it) {
      const FillClass cls = class_at(*it);
      for (const std::size_t r : cls.resources) {
        if (unfrozen_count[r] == 0) continue;  // residual never read again
        for (std::uint64_t k = 0; k < cls.count; ++k) residual[r] -= best_share;
      }
    }
  }
}

/// Solve max-min fair rates.
///
/// `capacities[r]` is resource r's capacity in bytes/second; `flows[f]` lists
/// the resources flow f traverses (must be non-empty, indices in range).
/// Returns one rate per flow.  Flows through zero-capacity resources get 0;
/// flows whose every resource is unconstrained (+infinity) get 0 as well
/// (orphan flows — the fluid model has no finite bottleneck to fill against).
std::vector<Bandwidth> max_min_fair_rates(const std::vector<Bandwidth>& capacities,
                                          const std::vector<FlowConstraints>& flows);

/// Counted/weighted variant: `classes[c]` stands for `classes[c].count`
/// identical flows.  Returns the per-flow rate of each class (every member
/// flow of class c runs at the returned rates[c]).  Equivalent to expanding
/// each class into `count` copies and calling max_min_fair_rates.
std::vector<Bandwidth> max_min_fair_rates_weighted(
    const std::vector<Bandwidth>& capacities,
    const std::vector<WeightedFlowConstraints>& classes);

}  // namespace frieda::net
