#include "decision/expression.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace dde::decision {

std::vector<LabelId> DnfExpr::relevant_labels(const Assignment& a,
                                              SimTime now) const {
  std::vector<LabelId> out;
  if (resolved(a, now)) return out;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (eval_disjunct(i, a, now) != Tristate::kUnknown) continue;
    for (const Term& t : disjuncts_[i].terms) {
      if (eval_term(t, a, now) != Tristate::kUnknown) continue;
      if (std::find(out.begin(), out.end(), t.label) == out.end()) {
        out.push_back(t.label);
      }
    }
  }
  return out;
}

std::vector<LabelId> DnfExpr::all_labels() const {
  std::vector<LabelId> sorted;
  return all_labels(sorted);
}

std::vector<LabelId> DnfExpr::all_labels(std::vector<LabelId>& sorted) const {
  std::size_t terms = 0;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const auto& c : disjuncts_) {
    terms += c.terms.size();
    for (const Term& t : c.terms) {
      lo = std::min(lo, t.label.value());
      hi = std::max(hi, t.label.value());
    }
  }
  std::vector<LabelId> out;
  sorted.clear();
  if (terms == 0) return out;
  out.reserve(terms);
  // Route queries name a few dozen segments out of a few hundred: a bitmap
  // over the labels' span marks each seen in O(1), and reading it back
  // lists them in ascending order.
  std::array<std::uint64_t, 16> seen{};
  if (hi - lo < 64 * seen.size()) {
    for (const auto& c : disjuncts_) {
      for (const Term& t : c.terms) {
        const std::uint64_t i = t.label.value() - lo;
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if ((seen[i / 64] & bit) != 0) continue;
        seen[i / 64] |= bit;
        out.push_back(t.label);
      }
    }
    sorted.reserve(out.size());
    for (std::size_t w = 0; w < seen.size(); ++w) {
      for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
        sorted.push_back(LabelId{lo + 64 * w +
                                 static_cast<unsigned>(std::countr_zero(bits))});
      }
    }
    return out;
  }
  // A wider span: a label is new iff a binary search of the sorted labels
  // so far misses it, and inserting it there keeps them sorted.
  sorted.reserve(terms);
  for (const auto& c : disjuncts_) {
    for (const Term& t : c.terms) {
      const auto at = std::lower_bound(sorted.begin(), sorted.end(), t.label);
      if (at != sorted.end() && *at == t.label) continue;
      sorted.insert(at, t.label);
      out.push_back(t.label);
    }
  }
  return out;
}

}  // namespace dde::decision
