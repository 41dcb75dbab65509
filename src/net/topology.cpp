#include "net/topology.hpp"

#include <cmath>

#include "common/error.hpp"

namespace frieda::net {

namespace {

// Every flow crosses its endpoints' NICs, so a finite NIC gives every flow a
// finite bottleneck; two infinite NICs would leave a flow with nothing to
// fill against.
void check_nic(Bandwidth egress, Bandwidth ingress) {
  FRIEDA_CHECK(std::isfinite(egress) && egress > 0 && std::isfinite(ingress) && ingress > 0,
               "NIC capacities must be finite and positive, got egress "
                   << egress << ", ingress " << ingress);
}

}  // namespace

NodeId Topology::add_node(std::string name, Bandwidth egress, Bandwidth ingress) {
  check_nic(egress, ingress);
  nodes_.push_back(Node{std::move(name), egress, ingress});
  ++version_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Topology::check(NodeId id) const {
  FRIEDA_CHECK(id < nodes_.size(), "node id " << id << " out of range");
}

const std::string& Topology::name(NodeId id) const {
  check(id);
  return nodes_[id].name;
}

Bandwidth Topology::egress(NodeId id) const {
  check(id);
  return nodes_[id].egress;
}

Bandwidth Topology::ingress(NodeId id) const {
  check(id);
  return nodes_[id].ingress;
}

void Topology::set_nic(NodeId id, Bandwidth egress, Bandwidth ingress) {
  check(id);
  check_nic(egress, ingress);
  nodes_[id].egress = egress;
  nodes_[id].ingress = ingress;
  ++version_;
}

void Topology::set_pair_limit(NodeId src, NodeId dst, Bandwidth cap) {
  check(src);
  check(dst);
  FRIEDA_CHECK(cap > 0, "pair limit must be positive");
  pair_limits_[pair_key(src, dst)] = cap;
  ++version_;
}

void Topology::set_backbone_capacity(Bandwidth cap) {
  FRIEDA_CHECK(cap > 0, "backbone capacity must be positive");
  backbone_ = cap;
  ++version_;
}

Bandwidth Topology::pair_limit(NodeId src, NodeId dst) const {
  const auto it = pair_limits_.find(pair_key(src, dst));
  if (it == pair_limits_.end()) return std::numeric_limits<Bandwidth>::infinity();
  return it->second;
}

void Topology::set_rack(NodeId id, RackId rack) {
  check(id);
  nodes_[id].rack = rack;
  ++version_;
}

RackId Topology::rack(NodeId id) const {
  check(id);
  return nodes_[id].rack;
}

void Topology::set_rack_uplink(RackId rack, Bandwidth cap) {
  FRIEDA_CHECK(rack != kNoRack, "cannot configure an uplink for kNoRack");
  FRIEDA_CHECK(cap > 0, "rack uplink capacity must be positive");
  if (rack >= rack_uplinks_.size()) {
    rack_uplinks_.resize(rack + 1, std::numeric_limits<Bandwidth>::infinity());
  }
  if (rack_uplinks_[rack] == std::numeric_limits<Bandwidth>::infinity()) {
    ++rack_uplinks_configured_;
  }
  rack_uplinks_[rack] = cap;
  ++version_;
}

Bandwidth Topology::rack_uplink(RackId rack) const {
  if (rack == kNoRack || rack >= rack_uplinks_.size()) {
    return std::numeric_limits<Bandwidth>::infinity();
  }
  return rack_uplinks_[rack];
}

void Topology::set_site(NodeId id, SiteId site) {
  check(id);
  nodes_[id].site = site;
  ++version_;
}

SiteId Topology::site(NodeId id) const {
  check(id);
  return nodes_[id].site;
}

void Topology::set_intersite_capacity(SiteId a, SiteId b, Bandwidth cap) {
  FRIEDA_CHECK(a != b, "inter-site capacity needs two distinct sites");
  FRIEDA_CHECK(cap > 0, "inter-site capacity must be positive");
  intersite_[site_key(a, b)] = cap;
  ++version_;
}

Bandwidth Topology::intersite_capacity(SiteId a, SiteId b) const {
  if (a == b) return std::numeric_limits<Bandwidth>::infinity();
  const auto it = intersite_.find(site_key(a, b));
  if (it == intersite_.end()) return std::numeric_limits<Bandwidth>::infinity();
  return it->second;
}

}  // namespace frieda::net
