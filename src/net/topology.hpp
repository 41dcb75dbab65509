// Network topology: a node / rack / site hierarchy with NIC capacities,
// optional rack uplinks, inter-site WAN caps, provisioned pair limits and a
// backbone capacity.
//
// The evaluation topology (paper Section IV.A) is a star: every VM hangs off
// a non-blocking switch through a 100 Mbps provisioned NIC.  A flow src→dst
// therefore traverses src's egress, dst's ingress, optionally a provisioned
// per-pair limit, and optionally the shared backbone.
//
// At cloud scale the star generalizes to a hierarchy: nodes are grouped into
// racks (each with an optional shared uplink capacity), racks into federated
// sites (each pair with an optional WAN cap).  A flow's full constraint
// vector — egress, ingress, the uplink of each racked endpoint when the
// endpoints sit in different racks, the inter-site WAN, the backbone — is
// assembled from indexed arrays in O(1) per resource, which keeps the
// constraint graph sparse: flows confined to one rack share nothing with
// other racks unless a backbone cap couples them, so the network model's
// incremental solver can re-solve small dirty sets (see docs/performance.md).
//
// Pair and inter-site overrides live in hashed flat maps keyed by packed
// integer ids (not ordered std::maps); rack membership and uplinks are plain
// vectors indexed by node/rack id.  Every mutation bumps version(), which
// the network uses to invalidate its cached per-flow constraint vectors.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace frieda::net {

/// Identifier of a topology node (VM, data source, storage server).
using NodeId = std::uint32_t;

/// Identifier of a site in a federated deployment (paper Sections I, V.C:
/// "federated cloud sites").  Site 0 is the default/home site.
using SiteId = std::uint16_t;

/// Identifier of a rack (a group of nodes behind one shared uplink).
using RackId = std::uint32_t;

/// Sentinel: the node has not been assigned to a rack (it hangs directly off
/// the core switch and traverses no uplink).
inline constexpr RackId kNoRack = 0xffffffffu;

/// Star topology with per-node NIC capacities and optional overrides.
class Topology {
 public:
  /// Add a node; returns its id.  `egress`/`ingress` are NIC capacities in
  /// bytes/second, finite and positive.
  NodeId add_node(std::string name, Bandwidth egress, Bandwidth ingress);

  /// Number of nodes.
  std::size_t node_count() const { return nodes_.size(); }

  /// Node's display name.
  const std::string& name(NodeId id) const;

  /// NIC capacities.
  Bandwidth egress(NodeId id) const;
  Bandwidth ingress(NodeId id) const;

  /// Replace a node's NIC capacities (elastic re-provisioning; finite and
  /// positive).
  void set_nic(NodeId id, Bandwidth egress, Bandwidth ingress);

  /// Provision a directional per-pair bandwidth cap (src -> dst).
  void set_pair_limit(NodeId src, NodeId dst, Bandwidth cap);

  /// Pair cap if provisioned, else +infinity.
  Bandwidth pair_limit(NodeId src, NodeId dst) const;

  /// Cap the aggregate backbone (default: unconstrained switch; +infinity
  /// removes the cap).  Must be positive.
  void set_backbone_capacity(Bandwidth cap);

  /// Backbone capacity (+infinity when unconstrained).
  Bandwidth backbone_capacity() const { return backbone_; }

  /// True when a backbone cap was configured.
  bool has_backbone_cap() const {
    return backbone_ != std::numeric_limits<Bandwidth>::infinity();
  }

  /// Assign a node to a rack.  A flow whose endpoints sit in different racks
  /// traverses the uplink of each racked endpoint; intra-rack flows (and
  /// endpoints left at kNoRack) bypass the uplinks entirely.
  void set_rack(NodeId id, RackId rack);

  /// The node's rack (kNoRack when unassigned).
  RackId rack(NodeId id) const;

  /// Cap the shared uplink of `rack` (up and down traffic share it, like a
  /// top-of-rack switch trunk).
  void set_rack_uplink(RackId rack, Bandwidth cap);

  /// Rack uplink capacity (+infinity when not configured).
  Bandwidth rack_uplink(RackId rack) const;

  /// True when any rack uplink was configured.
  bool has_rack_uplinks() const { return rack_uplinks_configured_ > 0; }

  /// Number of rack uplinks configured so far.
  std::size_t rack_count() const { return rack_uplinks_.size(); }

  /// Assign a node to a federated site (default: site 0).
  void set_site(NodeId id, SiteId site);

  /// The node's site.
  SiteId site(NodeId id) const;

  /// Cap the WAN between two sites (order-insensitive); inter-site flows in
  /// both directions share this capacity, like a provisioned circuit.
  void set_intersite_capacity(SiteId a, SiteId b, Bandwidth cap);

  /// Inter-site capacity (+infinity when not configured).
  Bandwidth intersite_capacity(SiteId a, SiteId b) const;

  /// True when any inter-site cap was configured.
  bool has_intersite_caps() const { return !intersite_.empty(); }

  /// Monotonic mutation counter: bumped by every change that can alter a
  /// flow's constraint set or a resource's capacity (add_node, set_nic,
  /// set_pair_limit, set_backbone_capacity, set_site,
  /// set_intersite_capacity).  Caches keyed on this value stay valid exactly
  /// as long as it is unchanged.
  std::uint64_t version() const { return version_; }

 private:
  struct Node {
    std::string name;
    Bandwidth egress;
    Bandwidth ingress;
    SiteId site = 0;
    RackId rack = kNoRack;
  };
  void check(NodeId id) const;

  static std::uint64_t pair_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  static std::uint32_t site_key(SiteId a, SiteId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint32_t>(a) << 16) | b;
  }

  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, Bandwidth> pair_limits_;
  std::unordered_map<std::uint32_t, Bandwidth> intersite_;
  std::vector<Bandwidth> rack_uplinks_;  ///< indexed by RackId; +inf = unset
  std::size_t rack_uplinks_configured_ = 0;
  Bandwidth backbone_ = std::numeric_limits<Bandwidth>::infinity();
  std::uint64_t version_ = 0;
};

}  // namespace frieda::net
