// Source selection as weighted set cover (Sec. III-B).
//
// Multiple sources may offer evidence covering overlapping subsets of the
// predicates a decision needs. We want the least-cost subset of sources
// that covers all required predicates. The greedy algorithm (best marginal
// coverage per unit cost) is the classical H_n-approximation the paper's
// `slt` scheme relies on; an exact branch-and-bound solver is provided as a
// test/benchmark reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dde::coverage {

/// One selectable source: a cost and the set of elements it covers
/// (element ids are small dense integers assigned by the caller).
struct CoverSet {
  double cost = 1.0;
  std::vector<std::uint32_t> elements;
};

/// A set-cover instance: choose sets covering all elements in `universe`.
struct CoverInstance {
  std::vector<std::uint32_t> universe;
  std::vector<CoverSet> sets;
};

/// Result of a cover computation.
struct CoverResult {
  bool covered = false;              ///< all universe elements covered?
  double cost = 0.0;                 ///< total cost of chosen sets
  std::vector<std::size_t> chosen;   ///< indexes into instance.sets
};

/// A cover instance in flat form: set i costs costs[i] and covers the
/// elements elements[offsets[i]] .. elements[offsets[i + 1] - 1], which are
/// distinct dense ids below `universe`; every id below `universe` is to be
/// covered. The solvers run on this form; a CoverInstance is converted to
/// it first.
struct FlatCover {
  std::size_t universe = 0;
  std::span<const double> costs;
  std::span<const std::uint32_t> offsets;  ///< costs.size() + 1 entries
  std::span<const std::uint32_t> elements;

  /// The elements set `i` covers.
  [[nodiscard]] std::span<const std::uint32_t> set(std::size_t i) const {
    return elements.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// Working memory for greedy_cover, reused across calls so that a caller
/// solving many small instances allocates only while they grow. Not for
/// concurrent use.
struct GreedyScratch {
  std::vector<std::uint32_t> gain;    ///< per set: its uncovered elements
  std::vector<double> ratio;          ///< per set: pick score, -1 if out
  std::vector<std::uint32_t> holders_at;  ///< element → sets, CSR offsets
  std::vector<std::uint32_t> holders;
  std::vector<std::uint8_t> covered;  ///< per element
  std::vector<std::uint8_t> used;     ///< per set: chosen
  CoverResult result;
};

/// Greedy weighted set cover: repeatedly pick the set with the most
/// uncovered elements per unit cost, gain / max(cost, 1e-12) (the lowest
/// index on a tie). Each set's score is recomputed only when one of its
/// elements gets covered, so a pick costs one scan of the scores. If full
/// coverage is impossible, covers what it can (covered=false). `chosen` is
/// ascending. The result lives in `scratch` until its next use.
const CoverResult& greedy_cover(const FlatCover& cover, GreedyScratch& scratch);

/// greedy_cover with working memory of its own.
[[nodiscard]] CoverResult greedy_cover(const FlatCover& cover);

/// greedy_cover over `instance`'s universe; elements outside it are
/// ignored, and repeated elements count once.
[[nodiscard]] CoverResult greedy_cover(const CoverInstance& instance);

/// Exact minimum-cost cover by branch and bound. Exponential; intended for
/// instances with ≤ ~25 sets. Returns covered=false if no cover exists.
[[nodiscard]] CoverResult exact_cover(const CoverInstance& instance);

}  // namespace dde::coverage
