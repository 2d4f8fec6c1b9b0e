#include "decision/planner.h"

#include <algorithm>

#include "decision/ordering.h"

namespace dde::decision {
namespace {

/// Unknown-valued terms of disjunct `i` (each label listed once).
std::vector<Term> unknown_terms(const DnfExpr& expr, std::size_t i,
                                const Assignment& a, SimTime now) {
  std::vector<Term> out;
  for (const Term& t : expr.disjuncts()[i].terms) {
    if (DnfExpr::eval_term(t, a, now) != Tristate::kUnknown) continue;
    const bool seen = std::any_of(out.begin(), out.end(), [&](const Term& u) {
      return u.label == t.label;
    });
    if (!seen) out.push_back(t);
  }
  return out;
}

/// A disjunct still unknown under the assignment.
struct OpenDisjunct {
  std::vector<Term> unknown;    ///< unknown terms, declaration order
  std::vector<Term> and_order;  ///< the same terms under the AND rule
  double success = 0.0;
  double ecost = 0.0;
};

/// Open disjuncts ordered by the OR short-circuit rule (success probability
/// of remaining terms per unit remaining expected cost, descending).
std::vector<OpenDisjunct> order_open_disjuncts(const DnfExpr& expr,
                                               const Assignment& a,
                                               SimTime now,
                                               const MetaFn& meta) {
  std::vector<OpenDisjunct> open;
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    if (expr.eval_disjunct(i, a, now) != Tristate::kUnknown) continue;
    OpenDisjunct d;
    d.unknown = unknown_terms(expr, i, a, now);
    d.and_order = order_conjunction(Conjunction{d.unknown}, meta);
    d.success = conjunction_success_prob(d.and_order, meta);
    d.ecost = expected_conjunction_cost(d.and_order, meta);
    open.push_back(std::move(d));
  }
  std::stable_sort(open.begin(), open.end(),
                   [](const OpenDisjunct& x, const OpenDisjunct& y) {
                     return x.success * std::max(y.ecost, 1e-12) >
                            y.success * std::max(x.ecost, 1e-12);
                   });
  return open;
}

void append_unique(std::vector<LabelId>& order,
                   const std::vector<Term>& terms) {
  for (const Term& t : terms) {
    if (std::find(order.begin(), order.end(), t.label) == order.end()) {
      order.push_back(t.label);
    }
  }
}

}  // namespace

std::vector<LabelId> plan_retrieval_order(const DnfExpr& expr,
                                          const Assignment& assignment,
                                          SimTime now, const MetaFn& meta,
                                          OrderPolicy policy,
                                          SimTime deadline) {
  if (expr.resolved(assignment, now)) return {};

  switch (policy) {
    case OrderPolicy::kDeclared:
      return expr.relevant_labels(assignment, now);

    case OrderPolicy::kCheapestFirst: {
      auto labels = expr.relevant_labels(assignment, now);
      std::stable_sort(labels.begin(), labels.end(),
                       [&](LabelId a, LabelId b) {
                         return meta(a).cost < meta(b).cost;
                       });
      return labels;
    }

    case OrderPolicy::kShortCircuit: {
      std::vector<LabelId> order;
      for (const auto& d :
           order_open_disjuncts(expr, assignment, now, meta)) {
        append_unique(order, d.and_order);
      }
      return order;
    }

    case OrderPolicy::kLongestValidityFirst: {
      auto labels = expr.relevant_labels(assignment, now);
      std::stable_sort(labels.begin(), labels.end(),
                       [&](LabelId a, LabelId b) {
                         return meta(a).validity > meta(b).validity;
                       });
      return labels;
    }

    case OrderPolicy::kVariationalLvf: {
      // Decision-driven: pick disjuncts by the OR rule, then order each
      // disjunct's remaining terms validity-first with cost-improving
      // rearrangements that stay freshness-feasible for the deadline.
      std::vector<LabelId> order;
      for (const auto& d :
           order_open_disjuncts(expr, assignment, now, meta)) {
        append_unique(order, variational_lvf_order(Conjunction{d.unknown},
                                                   meta, now, deadline));
      }
      return order;
    }
  }
  return {};
}

std::optional<LabelId> next_label(const DnfExpr& expr,
                                  const Assignment& assignment, SimTime now,
                                  const MetaFn& meta, OrderPolicy policy,
                                  SimTime deadline) {
  const auto order =
      plan_retrieval_order(expr, assignment, now, meta, policy, deadline);
  if (order.empty()) return std::nullopt;
  return order.front();
}

}  // namespace dde::decision
