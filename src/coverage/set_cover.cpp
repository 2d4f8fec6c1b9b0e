#include "coverage/set_cover.h"

#include <algorithm>
#include <limits>

#include "common/contracts.h"

namespace dde::coverage {
namespace {

/// A CoverInstance in flat form, owning its arrays. Universe elements get
/// dense ids in first-appearance order; each set keeps its elements inside
/// the universe, each once, ascending by id.
struct OwnedFlat {
  std::size_t universe = 0;
  std::vector<double> costs;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> elements;

  [[nodiscard]] FlatCover view() const {
    return FlatCover{universe, costs, offsets, elements};
  }
};

constexpr std::uint32_t kNoId = std::numeric_limits<std::uint32_t>::max();

OwnedFlat flatten(const CoverInstance& in) {
  // Distinct universe elements, ascending, with the dense id of each.
  std::vector<std::uint32_t> keys = in.universe;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto slot = [&](std::uint32_t e) {
    return static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), e) - keys.begin());
  };
  std::vector<std::uint32_t> id(keys.size(), kNoId);
  OwnedFlat f;
  for (std::uint32_t e : in.universe) {
    auto& i = id[slot(e)];
    if (i == kNoId) i = static_cast<std::uint32_t>(f.universe++);
  }
  f.costs.reserve(in.sets.size());
  f.offsets.reserve(in.sets.size() + 1);
  f.offsets.push_back(0);
  for (const auto& s : in.sets) {
    for (std::uint32_t e : s.elements) {
      const std::size_t k = slot(e);
      if (k < keys.size() && keys[k] == e) f.elements.push_back(id[k]);
    }
    const auto begin = f.elements.begin() + f.offsets.back();
    std::sort(begin, f.elements.end());
    f.elements.erase(std::unique(begin, f.elements.end()), f.elements.end());
    f.costs.push_back(s.cost);
    f.offsets.push_back(static_cast<std::uint32_t>(f.elements.size()));
  }
  return f;
}

using Mask = std::vector<bool>;

}  // namespace

CoverResult greedy_cover(const FlatCover& cover) {
  const std::size_t sets = cover.costs.size();
  CoverResult result;
  Mask covered(cover.universe, false);
  std::size_t remaining = cover.universe;
  std::vector<bool> used(sets, false);
  while (remaining > 0) {
    double best_ratio = -1.0;
    std::size_t best = sets;
    for (std::size_t i = 0; i < sets; ++i) {
      if (used[i]) continue;
      std::size_t gain = 0;
      for (std::uint32_t b : cover.set(i)) {
        if (!covered[b]) ++gain;
      }
      if (gain == 0) continue;
      const double ratio =
          static_cast<double>(gain) / std::max(cover.costs[i], 1e-12);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = i;
      }
    }
    if (best == sets) break;  // nothing covers more
    used[best] = true;
    result.chosen.push_back(best);
    result.cost += cover.costs[best];
    for (std::uint32_t b : cover.set(best)) {
      if (!covered[b]) {
        covered[b] = true;
        --remaining;
      }
    }
  }
  result.covered = remaining == 0;
  std::sort(result.chosen.begin(), result.chosen.end());
  return result;
}

CoverResult greedy_cover(const CoverInstance& instance) {
  return greedy_cover(flatten(instance).view());
}

namespace {

struct BnB {
  FlatCover d;
  // element → sets containing it, cheapest-cost-per-element first not
  // needed; we branch on the lowest-index uncovered element.
  std::vector<std::vector<std::size_t>> element_sets;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_chosen;
  std::vector<std::size_t> current;

  explicit BnB(FlatCover flat) : d(flat) {
    element_sets.assign(d.universe, {});
    for (std::size_t i = 0; i < d.costs.size(); ++i) {
      for (std::uint32_t b : d.set(i)) element_sets[b].push_back(i);
    }
  }

  void solve(Mask& covered, std::size_t remaining, double cost) {
    if (cost >= best_cost) return;  // bound
    if (remaining == 0) {
      best_cost = cost;
      best_chosen = current;
      return;
    }
    // Branch on the first uncovered element: some chosen set must cover it.
    std::size_t elem = 0;
    while (elem < d.universe && covered[elem]) ++elem;
    DDE_CHECK(elem < d.universe,
              "set_cover BnB: remaining > 0 but every element is covered");
    for (std::size_t i : element_sets[elem]) {
      // Apply set i.
      std::vector<std::size_t> newly;
      for (std::uint32_t b : d.set(i)) {
        if (!covered[b]) {
          covered[b] = true;
          newly.push_back(b);
        }
      }
      current.push_back(i);
      solve(covered, remaining - newly.size(), cost + d.costs[i]);
      current.pop_back();
      for (std::size_t b : newly) covered[b] = false;
    }
  }
};

}  // namespace

CoverResult exact_cover(const CoverInstance& instance) {
  const OwnedFlat owned = flatten(instance);
  const FlatCover d = owned.view();
  BnB bnb(d);
  Mask covered(d.universe, false);
  bnb.solve(covered, d.universe, 0.0);
  CoverResult result;
  if (bnb.best_cost == std::numeric_limits<double>::infinity()) {
    // No full cover exists; fall back to greedy partial for a usable answer.
    result = greedy_cover(d);
    result.covered = false;
    return result;
  }
  result.covered = true;
  result.cost = bnb.best_cost;
  result.chosen = bnb.best_chosen;
  std::sort(result.chosen.begin(), result.chosen.end());
  return result;
}

}  // namespace dde::coverage
