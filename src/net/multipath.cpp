#include "net/multipath.h"

#include <algorithm>
#include <utility>

namespace dde::net {

std::vector<NodeId> downhill_neighbors(const Topology& topo, NodeId from,
                                       NodeId dest) {
  std::vector<NodeId> result;
  if (from == dest) return result;
  const auto here = topo.hop_distance(from, dest);
  if (!here) return result;
  std::vector<std::pair<std::size_t, NodeId>> ranked;
  for (NodeId nb : topo.neighbors(from)) {
    const auto there = topo.hop_distance(nb, dest);
    if (there && *there < *here) ranked.emplace_back(*there, nb);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.value() < b.second.value();
            });
  result.reserve(ranked.size());
  for (const auto& [hops, nb] : ranked) result.push_back(nb);
  return result;
}

std::vector<NodeId> alternate_next_hops(const Topology& topo, NodeId from,
                                        NodeId dest, std::size_t k,
                                        const std::vector<NodeId>& used) {
  std::vector<NodeId> result;
  if (k == 0) return result;
  for (NodeId nb : downhill_neighbors(topo, from, dest)) {
    if (std::find(used.begin(), used.end(), nb) != used.end()) continue;
    result.push_back(nb);
    if (result.size() >= k) break;
  }
  return result;
}

}  // namespace dde::net
