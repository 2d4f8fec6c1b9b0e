#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/contracts.h"

namespace dde::net {

namespace {

/// An enabled link v→u as seen from u: its tail and its weight.
struct InLink {
  std::uint32_t from;
  double weight;
};

/// Enabled in-links of every node, one run per node in link order: node
/// u's are links[begin[u]] up to links[begin[u + 1]].
struct InLinks {
  std::vector<std::size_t> begin;
  std::vector<InLink> links;

  [[nodiscard]] std::size_t node_count() const { return begin.size() - 1; }
};

// Dijkstra from every destination over reversed edges, so a single pass
// yields next hops toward that destination from every node. Each pass
// writes its destination's rows of next_hop/hops (n entries each, row
// dest at dest * n) in place and reuses one distance buffer and one heap.
// Heap entries are totally ordered by (distance, node), so the pop order,
// and with it every tie-break, is the heap's own.
void dijkstra_routes(const InLinks& in, std::uint32_t* next_hop,
                     std::uint32_t* hops_all) {
  const std::size_t n = in.node_count();
  std::vector<double> dist;
  using Item = std::pair<double, std::uint32_t>;
  std::vector<Item> heap;
  const auto later = std::greater<>{};
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::uint32_t* next = next_hop + dest * n;
    std::uint32_t* hops = hops_all + dest * n;
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
      for (std::size_t k = in.begin[u]; k < in.begin[u + 1]; ++k) {
        const std::uint32_t v = in.links[k].from;
        const double through = dist[u] + in.links[k].weight;
        if (through < dist[v]) {
          dist[v] = through;
          hops[v] = hops[u] + 1;
          next[v] = u;
          heap.emplace_back(through, v);
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
    }
  }
}

// The same tables as dijkstra_routes when every enabled link has one
// weight w > 0, by breadth-first search over reversed edges. Summed hop by
// hop, the heap's distance of a node k hops away is the same double d_k for
// every such node, and d_k rises strictly with k: a sum of fewer than 2^32
// terms w stays below 2^52·w, so each added w exceeds half an ulp of it,
// and the caller keeps 2·n·w finite. So the heap pops whole levels in turn,
// each in node-id order (it pops by (distance, node)), and since only a
// strictly shorter path updates a node, a node's next hop is the first
// node popped that reaches it: the smallest-id node of the previous level
// it has an enabled link to.
void bfs_routes(const InLinks& in, std::uint32_t* next_hop,
                std::uint32_t* hops_all) {
  const std::size_t n = in.node_count();
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> below;
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::uint32_t* next = next_hop + dest * n;
    std::uint32_t* hops = hops_all + dest * n;
    hops[dest] = 0;
    next[dest] = static_cast<std::uint32_t>(dest);
    level.assign(1, static_cast<std::uint32_t>(dest));
    for (std::uint32_t k = 1; !level.empty(); ++k) {
      below.clear();
      for (const std::uint32_t u : level) {
        for (std::size_t e = in.begin[u]; e < in.begin[u + 1]; ++e) {
          const std::uint32_t v = in.links[e].from;
          if (hops[v] == k) {
            next[v] = std::min(next[v], u);  // reached again on level k
          } else if (hops[v] > k) {  // still kNoRoute: first reached
            hops[v] = k;
            next[v] = u;
            below.push_back(v);
          }
        }
      }
      level.swap(below);
    }
  }
}

}  // namespace

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
  // Enabled links into each node in link order: a relaxation visits the
  // same edges in the same order as a scan of every link would. A link's
  // weight is its delay for a nominal 1 KB packet.
  const auto enabled = [&](const Link& l) {
    return link_enabled.empty() || link_enabled[l.id.value()] != 0;
  };
  InLinks in;
  in.begin.assign(n + 1, 0);
  for (const Link& l : links_) {
    if (enabled(l)) ++in.begin[l.to.value() + 1];
  }
  std::partial_sum(in.begin.begin(), in.begin.end(), in.begin.begin());
  in.links.resize(in.begin[n]);
  std::vector<std::size_t> cursor(in.begin.begin(), in.begin.end() - 1);
  for (const Link& l : links_) {
    if (!enabled(l)) continue;
    in.links[cursor[l.to.value()]++] = InLink{
        static_cast<std::uint32_t>(l.from.value()),
        l.latency.to_seconds() + 1024.0 * 8.0 / l.bandwidth_bps};
  }
  // One positive weight whose level sums stay finite takes the BFS (see
  // bfs_routes). Zero weight ties every distance at 0, so the heap's pop
  // order is by node id alone and no longer level by level.
  const double w = in.links.empty() ? 0.0 : in.links.front().weight;
  const bool uniform =
      std::all_of(in.links.begin(), in.links.end(),
                  [w](const InLink& e) { return e.weight == w; });
  if (uniform && w > 0.0 &&
      std::isfinite(w * 2.0 * static_cast<double>(n))) {
    bfs_routes(in, next_hop_.data(), hops_.data());
  } else {
    dijkstra_routes(in, next_hop_.data(), hops_.data());
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
  DDE_CHECK(from.valid() && from.value() < node_count_,
            "hop_distance: unknown source node");
  DDE_CHECK(dest.valid() && dest.value() < node_count_,
            "hop_distance: unknown destination node");
  const std::uint32_t h = hops_[dest.value() * node_count_ + from.value()];
  if (h == kNoRoute) return std::nullopt;
  return h;
}

}  // namespace dde::net
