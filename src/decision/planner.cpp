#include "decision/planner.h"

#include <algorithm>

namespace dde::decision {
namespace {

void append_unique(std::vector<LabelId>& order, LabelId label) {
  if (std::find(order.begin(), order.end(), label) == order.end()) {
    order.push_back(label);
  }
}

std::span<ResolvedTerm> terms_of(PlanScratch& s, const ScoredSpan& d) {
  return std::span(s.terms).subspan(d.begin, d.end - d.begin);
}

/// Collect the open disjuncts of `expr` into `s`: each unknown disjunct's
/// unknown terms, the first term of each label only, in declaration order.
/// False when the expression is resolved (a disjunct is true, or none is
/// open).
bool collect_open(const DnfExpr& expr, const Assignment& a, SimTime now,
                  PlanScratch& s) {
  std::size_t terms = 0;
  for (const Conjunction& c : expr.disjuncts()) terms += c.terms.size();
  s.terms.clear();
  s.terms.reserve(terms);
  s.open.clear();
  s.open.reserve(expr.disjunct_count());
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    const auto begin = static_cast<std::uint32_t>(s.terms.size());
    bool dead = false;
    for (const Term& t : expr.disjuncts()[i].terms) {
      const Tristate v = DnfExpr::eval_term(t, a, now);
      if (v == Tristate::kFalse) {
        dead = true;  // Kleene AND short-circuit
        break;
      }
      if (v == Tristate::kTrue) continue;
      const bool seen =
          std::any_of(s.terms.begin() + begin, s.terms.end(),
                      [&](const ResolvedTerm& r) {
                        return r.term.label == t.label;
                      });
      if (!seen) {
        s.terms.push_back(ResolvedTerm{
            t, LabelMeta{}, 0.0,
            static_cast<std::uint32_t>(s.terms.size() - begin)});
      }
    }
    if (dead) {
      s.terms.resize(begin);
      continue;
    }
    const auto end = static_cast<std::uint32_t>(s.terms.size());
    if (end == begin) return false;  // a viable course of action
    s.open.push_back(
        ScoredSpan{static_cast<std::uint32_t>(i), begin, end, {}});
  }
  return !s.open.empty();
}

}  // namespace

std::vector<LabelId> plan_retrieval_order(const DnfExpr& expr,
                                          const Assignment& assignment,
                                          SimTime now, MetaRef meta,
                                          OrderPolicy policy,
                                          SimTime deadline,
                                          PlanScratch& scratch) {
  if (!collect_open(expr, assignment, now, scratch)) return {};
  std::vector<LabelId> order;
  order.reserve(scratch.terms.size());

  switch (policy) {
    case OrderPolicy::kDeclared:
    case OrderPolicy::kCheapestFirst:
      // The relevant labels (DnfExpr::relevant_labels), each once.
      for (const ResolvedTerm& r : scratch.terms) {
        append_unique(order, r.term.label);
      }
      if (policy == OrderPolicy::kDeclared) return order;
      // Sorted by cost.
      scratch.terms.clear();
      for (std::size_t i = 0; i < order.size(); ++i) {
        scratch.terms.push_back(resolve_term(Term{order[i]}, meta,
                                             static_cast<std::uint32_t>(i)));
      }
      cheapest_first_order(scratch.terms);
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = scratch.terms[i].term.label;
      }
      return order;

    case OrderPolicy::kShortCircuit:
    case OrderPolicy::kVariationalLvf: {
      // Order each open disjunct's terms by the AND rule and the disjuncts
      // by the OR rule. Variational LVF then re-orders each disjunct's
      // terms validity-first, with cost-improving rearrangements that stay
      // freshness-feasible for the deadline.
      for (ResolvedTerm& r : scratch.terms) {
        r = resolve_term(r.term, meta, r.pos);
      }
      for (ScoredSpan& d : scratch.open) {
        d.score = and_rule_order(terms_of(scratch, d));
      }
      or_rule_order(scratch.open);
      for (const ScoredSpan& d : scratch.open) {
        const auto terms = terms_of(scratch, d);
        if (policy == OrderPolicy::kVariationalLvf) {
          variational_lvf_in_place(terms, now, deadline);
        }
        for (const ResolvedTerm& r : terms) append_unique(order, r.term.label);
      }
      return order;
    }
  }
  return {};
}

std::vector<LabelId> plan_retrieval_order(const DnfExpr& expr,
                                          const Assignment& assignment,
                                          SimTime now, MetaRef meta,
                                          OrderPolicy policy,
                                          SimTime deadline) {
  PlanScratch scratch;
  return plan_retrieval_order(expr, assignment, now, meta, policy, deadline,
                              scratch);
}

std::optional<LabelId> next_label(const DnfExpr& expr,
                                  const Assignment& assignment, SimTime now,
                                  MetaRef meta, OrderPolicy policy,
                                  SimTime deadline) {
  const auto order =
      plan_retrieval_order(expr, assignment, now, meta, policy, deadline);
  if (order.empty()) return std::nullopt;
  return order.front();
}

}  // namespace dde::decision
