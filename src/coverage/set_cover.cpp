#include "coverage/set_cover.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

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

/// The score greedy_cover ranks a set by; -1 takes it out of the running.
double score(std::uint32_t gain, double cost) {
  return gain == 0 ? -1.0
                   : static_cast<double>(gain) / std::max(cost, 1e-12);
}

/// The highest of `scores`, or -1 if none is higher; a NaN never wins, as
/// under `>`. Four running maxima keep the compare chains short, and max is
/// exact, so the grouping does not change the result.
double max_score(std::span<const double> scores) {
  const auto higher = [](double a, double b) { return b > a ? b : a; };
  std::array<double, 4> m{-1.0, -1.0, -1.0, -1.0};
  std::size_t i = 0;
  for (; i + 4 <= scores.size(); i += 4) {
    for (std::size_t k = 0; k < 4; ++k) m[k] = higher(m[k], scores[i + k]);
  }
  for (; i < scores.size(); ++i) m[0] = higher(m[0], scores[i]);
  return higher(higher(m[0], m[1]), higher(m[2], m[3]));
}

/// Whether every set's cached gain equals a recount of its uncovered
/// elements.
[[maybe_unused]] bool gains_recount(const FlatCover& cover,
                                    const GreedyScratch& s) {
  for (std::size_t i = 0; i < cover.costs.size(); ++i) {
    std::uint32_t uncovered = 0;
    for (std::uint32_t b : cover.set(i)) uncovered += s.covered[b] == 0;
    if (uncovered != s.gain[i]) return false;
  }
  return true;
}

}  // namespace

const CoverResult& greedy_cover(const FlatCover& cover, GreedyScratch& s) {
  const std::size_t sets = cover.costs.size();
  const std::size_t universe = cover.universe;
  s.gain.resize(sets);
  s.ratio.resize(sets);
  s.used.assign(sets, 0);
  s.covered.assign(universe, 0);
  // Invert set → elements into element → sets by counting: the sets
  // holding element b are holders[holders_at[b] .. holders_at[b + 1]).
  s.holders_at.assign(universe + 1, 0);
  for (std::size_t i = 0; i < sets; ++i) {
    const auto elements = cover.set(i);
    s.gain[i] = static_cast<std::uint32_t>(elements.size());
    s.ratio[i] = score(s.gain[i], cover.costs[i]);
    for (std::uint32_t b : elements) ++s.holders_at[b];
  }
  for (std::size_t b = 1; b < universe; ++b) {
    s.holders_at[b] += s.holders_at[b - 1];
  }
  // Each count is now its element's end; filling backwards moves it to the
  // start.
  const std::uint32_t pairs = universe == 0 ? 0 : s.holders_at[universe - 1];
  s.holders_at[universe] = pairs;
  s.holders.resize(pairs);
  for (std::size_t i = sets; i-- > 0;) {
    for (std::uint32_t b : cover.set(i)) {
      s.holders[--s.holders_at[b]] = static_cast<std::uint32_t>(i);
    }
  }

  CoverResult& result = s.result;
  result.chosen.clear();
  result.cost = 0.0;
  std::size_t remaining = universe;
  while (remaining > 0) {
    // The first set with the highest score: the same pick as keeping the
    // first strict improvement.
    const double best_ratio = max_score(s.ratio);
    if (best_ratio == -1.0) break;  // nothing covers more
    std::size_t best = 0;
    while (s.ratio[best] != best_ratio) ++best;
    s.used[best] = 1;
    result.cost += cover.costs[best];
    for (std::uint32_t b : cover.set(best)) {
      if (s.covered[b]) continue;
      s.covered[b] = 1;
      --remaining;
      for (std::uint32_t k = s.holders_at[b]; k < s.holders_at[b + 1]; ++k) {
        const std::uint32_t j = s.holders[k];
        // A chosen set ends at gain 0, so its score ends at -1 too.
        s.ratio[j] = score(--s.gain[j], cover.costs[j]);
      }
    }
    DDE_INVARIANT(gains_recount(cover, s),
                  "greedy_cover: a cached gain disagrees with a recount");
  }
  for (std::size_t i = 0; i < sets; ++i) {
    if (s.used[i]) result.chosen.push_back(i);
  }
  result.covered = remaining == 0;
  return result;
}

CoverResult greedy_cover(const FlatCover& cover) {
  GreedyScratch scratch;
  greedy_cover(cover, scratch);
  return std::move(scratch.result);
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
