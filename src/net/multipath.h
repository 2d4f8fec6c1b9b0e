// Multipath redundancy support: alternate next-hop selection for sending
// replicated copies of critical traffic over disjoint first hops.
//
// The selection is policy-free: alternate_next_hops() just ranks a node's
// other neighbors by how much closer they sit to the destination
// (deterministically — ties break by node id), and the caller decides how
// many replicas to cut; receivers keep the first copy of each replica
// group and drop the rest.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "net/topology.h"

namespace dde::net {

/// Neighbors of `from` that are strictly closer to `dest` than `from`
/// itself (downhill hops), sorted by (hop distance to dest, node id).
/// The routing-table next hop is always first if reachable.
[[nodiscard]] std::vector<NodeId> downhill_neighbors(const Topology& topo,
                                                     NodeId from, NodeId dest);

/// Up to `k` distinct alternate next hops from `from` toward `dest`,
/// excluding the nodes in `used` (typically the primary next hop).
/// Deterministic: best-first order as in downhill_neighbors().
[[nodiscard]] std::vector<NodeId> alternate_next_hops(
    const Topology& topo, NodeId from, NodeId dest, std::size_t k,
    const std::vector<NodeId>& used);

}  // namespace dde::net
