// Network topology: nodes and directed links with bandwidth and
// propagation latency, plus shortest-path routing tables.
//
// This substitutes for the paper's EMANE emulator topology: Athena nodes
// forward interests and data hop-by-hop along next-hop routes computed here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace dde::net {

/// A directed link.
struct Link {
  LinkId id;
  NodeId from;
  NodeId to;
  double bandwidth_bps = 1e6;  ///< paper Sec. VII: 1 Mbps node-to-node
  SimTime latency = SimTime::millis(1);

  /// Serialization delay of `bytes` on this link.
  [[nodiscard]] SimTime transmission_time(std::uint64_t bytes) const noexcept {
    const double seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps;
    return SimTime::seconds(seconds);
  }
};

/// A static network graph with computed next-hop routes.
class Topology {
 public:
  /// Add a node; ids are dense starting at 0.
  NodeId add_node();

  /// Add a bidirectional link (two directed links) between `a` and `b`.
  /// Returns the two directed link ids (a→b, b→a).
  std::pair<LinkId, LinkId> add_link(NodeId a, NodeId b,
                                     double bandwidth_bps = 1e6,
                                     SimTime latency = SimTime::millis(1));

  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Directed link from `a` to `b`, if adjacent.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  /// Out-neighbors of `node`.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;

  /// (Re)compute all-pairs next-hop routes by Dijkstra over link delay
  /// (latency + per-byte time of a nominal 1 KB packet). Must be called
  /// after the topology is built and before next_hop() queries.
  void compute_routes();

  /// Route recomputation over a degraded graph: only links with
  /// `link_enabled[id] != 0` participate (the fault subsystem passes the
  /// current up/down state after each topology-change event). The vector
  /// must have one entry per directed link. Pairs separated by the
  /// disabled links simply become unreachable (next_hop → nullopt).
  void compute_routes(const std::vector<char>& link_enabled);

  /// Next hop from `from` toward `dest` (nullopt if unreachable or routes
  /// not computed). next_hop(x, x) == x.
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId from, NodeId dest) const;

  /// Hop count from `from` to `dest` (nullopt if unreachable).
  [[nodiscard]] std::optional<std::size_t> hop_distance(NodeId from,
                                                        NodeId dest) const;

  /// Route generation: bumped by every compute_routes() call and by every
  /// graph edit that invalidates the routes, so a value derived from
  /// next_hop()/hop_distance() stays valid while the epoch it was computed
  /// under is current.
  [[nodiscard]] std::uint64_t routes_epoch() const noexcept {
    return routes_epoch_;
  }

 private:
  std::size_t node_count_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;  // per node
  // next_hop_[from * node_count_ + dest] (kInvalid if unreachable)
  std::vector<NodeId> next_hop_;
  std::vector<std::size_t> hops_;
  bool routes_valid_ = false;
  std::uint64_t routes_epoch_ = 0;
};

}  // namespace dde::net
