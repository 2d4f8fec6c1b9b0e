#include "decision/expression.h"

#include <algorithm>
#include <unordered_set>

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
  std::vector<LabelId> out;
  std::unordered_set<LabelId> seen;
  for (const auto& c : disjuncts_) {
    for (const Term& t : c.terms) {
      if (seen.insert(t.label).second) out.push_back(t.label);
    }
  }
  return out;
}

}  // namespace dde::decision
