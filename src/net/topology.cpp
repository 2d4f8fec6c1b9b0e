#include "net/topology.h"

#include <algorithm>
#include <functional>
#include <limits>
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
  DDE_CHECK(n < kNoRoute, "compute_routes: node ids exceed 32 bits");
  next_hop_.assign(n * n, kNoRoute);
  hops_.assign(n * n, kNoRoute);
  // Enabled links into each node, in link order: a relaxation visits the
  // same edges in the same order as a scan of every link would.
  std::vector<std::vector<const Link*>> incoming(n);
  for (const Link& l : links_) {
    if (!link_enabled.empty() && !link_enabled[l.id.value()]) continue;
    incoming[l.to.value()].push_back(&l);
  }
  // Dijkstra from every destination over reversed edges, so a single pass
  // yields next hops toward that destination from every node. Each pass
  // writes its destination's rows in place and reuses one distance buffer
  // and one heap. Heap entries are totally ordered by (distance, node), so
  // the pop order, and with it every tie-break, is the heap's own.
  std::vector<double> dist;
  using Item = std::pair<double, std::uint32_t>;
  std::vector<Item> heap;
  const auto later = std::greater<>{};
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::uint32_t* next = next_hop_.data() + dest * n;
    std::uint32_t* hops = hops_.data() + dest * n;
    dist.assign(n, std::numeric_limits<double>::infinity());
    dist[dest] = 0.0;
    hops[dest] = 0;
    next[dest] = static_cast<std::uint32_t>(dest);
    heap.assign(1, Item{0.0, static_cast<std::uint32_t>(dest)});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u]) continue;
      // Relax incoming edges v→u: from v, going through u gets closer.
      for (const Link* l : incoming[u]) {
        const std::size_t v = l->from.value();
        const double w =
            l->latency.to_seconds() + 1024.0 * 8.0 / l->bandwidth_bps;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          hops[v] = hops[u] + 1;
          next[v] = u;
          heap.emplace_back(dist[v], static_cast<std::uint32_t>(v));
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
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
  const std::uint32_t hop =
      next_hop_[dest.value() * node_count_ + from.value()];
  if (hop == kNoRoute) return std::nullopt;
  return NodeId{hop};
}

std::optional<std::size_t> Topology::hop_distance(NodeId from,
                                                  NodeId dest) const {
  if (!routes_valid_) return std::nullopt;
  const std::uint32_t h = hops_[dest.value() * node_count_ + from.value()];
  if (h == kNoRoute) return std::nullopt;
  return h;
}

}  // namespace dde::net
