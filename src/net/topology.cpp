#include "net/topology.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::net {

NodeId Topology::add_node() {
  routes_valid_ = false;
  ++routes_epoch_;
  out_links_.emplace_back();
  return NodeId{node_count_++};
}

std::pair<LinkId, LinkId> Topology::add_link(NodeId a, NodeId b,
                                             double bandwidth_bps,
                                             SimTime latency) {
  DDE_CHECK(a.valid() && a.value() < node_count_,
            "add_link: endpoint a is not a node of this topology");
  DDE_CHECK(b.valid() && b.value() < node_count_,
            "add_link: endpoint b is not a node of this topology");
  DDE_CHECK(a != b, "add_link: self-loops are not allowed");
  DDE_CHECK(bandwidth_bps > 0,
            "add_link: bandwidth must be positive (zero would make route "
            "weights infinite)");
  routes_valid_ = false;
  ++routes_epoch_;
  const LinkId ab{links_.size()};
  links_.push_back(Link{ab, a, b, bandwidth_bps, latency});
  out_links_[a.value()].push_back(ab);
  const LinkId ba{links_.size()};
  links_.push_back(Link{ba, b, a, bandwidth_bps, latency});
  out_links_[b.value()].push_back(ba);
  return {ab, ba};
}

const Link& Topology::link(LinkId id) const {
  if (!id.valid() || id.value() >= links_.size()) {
    throw std::out_of_range("Topology::link: unknown link id");
  }
  return links_[id.value()];
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  DDE_CHECK(a.valid() && a.value() < node_count_,
            "link_between: unknown node");
  for (LinkId id : out_links_[a.value()]) {
    if (links_[id.value()].to == b) return id;
  }
  return std::nullopt;
}

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  DDE_CHECK(node.valid() && node.value() < node_count_,
            "neighbors: unknown node");
  std::vector<NodeId> out;
  out.reserve(out_links_[node.value()].size());
  for (LinkId id : out_links_[node.value()]) {
    out.push_back(links_[id.value()].to);
  }
  return out;
}

void Topology::compute_routes() {
  compute_routes(std::vector<char>());
}

void Topology::compute_routes(const std::vector<char>& link_enabled) {
  DDE_CHECK(link_enabled.empty() || link_enabled.size() == links_.size(),
            "compute_routes: link_enabled mask size mismatch");
  const std::size_t n = node_count_;
  next_hop_.assign(n * n, NodeId{});
  hops_.assign(n * n, std::numeric_limits<std::size_t>::max());
  // Enabled links into each node, in link order: a relaxation visits the
  // same edges in the same order as a scan of every link would.
  std::vector<std::vector<const Link*>> incoming(n);
  for (const Link& l : links_) {
    if (!link_enabled.empty() && !link_enabled[l.id.value()]) continue;
    incoming[l.to.value()].push_back(&l);
  }
  // Dijkstra from every destination over reversed edges, so a single pass
  // yields next hops toward that destination from every node.
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> hops(n, std::numeric_limits<std::size_t>::max());
    std::vector<NodeId> next(n, NodeId{});
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[dest] = 0.0;
    hops[dest] = 0;
    next[dest] = NodeId{dest};
    pq.emplace(0.0, dest);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      // Relax incoming edges v→u: from v, going through u gets closer.
      for (const Link* l : incoming[u]) {
        const std::size_t v = l->from.value();
        const double w =
            l->latency.to_seconds() + 1024.0 * 8.0 / l->bandwidth_bps;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          hops[v] = hops[u] + 1;
          next[v] = NodeId{u};
          pq.emplace(dist[v], v);
        }
      }
    }
    for (std::size_t from = 0; from < n; ++from) {
      next_hop_[from * n + dest] = next[from];
      hops_[from * n + dest] = hops[from];
    }
  }
  routes_valid_ = true;
  ++routes_epoch_;
}

std::optional<NodeId> Topology::next_hop(NodeId from, NodeId dest) const {
  if (!routes_valid_) return std::nullopt;
  DDE_CHECK(from.valid() && from.value() < node_count_,
            "next_hop: unknown source node");
  DDE_CHECK(dest.valid() && dest.value() < node_count_,
            "next_hop: unknown destination node");
  const NodeId hop = next_hop_[from.value() * node_count_ + dest.value()];
  if (!hop.valid()) return std::nullopt;
  return hop;
}

std::optional<std::size_t> Topology::hop_distance(NodeId from,
                                                  NodeId dest) const {
  if (!routes_valid_) return std::nullopt;
  const std::size_t h = hops_[from.value() * node_count_ + dest.value()];
  if (h == std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return h;
}

}  // namespace dde::net
