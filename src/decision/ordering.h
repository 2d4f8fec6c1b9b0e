// Retrieval-order optimization (Sec. III-A).
//
// Given a decision expression and per-label metadata (cost, success
// probability, latency, validity), compute evidence-retrieval orders that
// minimize expected cost via short-circuiting, subject to freshness
// feasibility. Includes:
//
//   * the (1−p)/C rule for ANDs and the s/E[cost] rule for ORs,
//   * expected-cost evaluation of a static plan (independence assumption),
//   * exact expected cost by world enumeration (reference for tests),
//   * brute-force optimal orders (reference for tests),
//   * the variational LVF order of [3]: validity-longest-first with
//     cost-improving rearrangements that preserve freshness feasibility.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/sim_time.h"
#include "decision/expression.h"
#include "decision/metadata.h"

namespace dde::decision {

/// Probability that `t` evaluates to true (accounts for negation).
[[nodiscard]] double term_p_true(const Term& t, MetaRef meta);

/// Short-circuit efficiency of a term inside an AND: (1 − p_true) / cost.
/// Higher is better (more likely to kill the conjunction per unit cost).
[[nodiscard]] double and_efficiency(const Term& t, MetaRef meta);

/// Terms of `c` ordered by descending AND efficiency (stable).
[[nodiscard]] std::vector<Term> order_conjunction(const Conjunction& c,
                                                  MetaRef meta);

/// Expected retrieval cost of evaluating `terms` sequentially in the given
/// order, stopping at the first false term (independent labels assumed).
[[nodiscard]] double expected_conjunction_cost(std::span<const Term> terms,
                                               MetaRef meta);

/// Probability all terms evaluate true (independent labels assumed).
[[nodiscard]] double conjunction_success_prob(std::span<const Term> terms,
                                              MetaRef meta);

/// A conjunction under the AND rule, scored for the OR rule.
struct ConjunctionPlan {
  std::vector<Term> order;  ///< order_conjunction(c, meta)
  double success = 0.0;     ///< conjunction_success_prob(order, meta)
  double ecost = 0.0;       ///< expected_conjunction_cost(order, meta)
};

// --- span kernels ----------------------------------------------------------
// The orderings below and the planner (planner.h) run on spans of resolved
// terms, ordered in place: one kernel per rule, no allocation. The
// functions taking a Conjunction or a Term span are wrappers that resolve
// into a local buffer.

/// A term with its metadata and AND efficiency looked up once, so sorts,
/// swaps and feasibility checks call `meta` once per term instead of once
/// per comparison. The term orders break ties by `pos`, the term's
/// declaration index, so sorting a span gives the same order whatever
/// order the span was in.
struct ResolvedTerm {
  Term term;
  LabelMeta meta;
  double efficiency = 0.0;  ///< (1 − p_true) / cost, as and_efficiency
  std::uint32_t pos = 0;    ///< declaration index
};

/// `t` with `meta(t.label)` looked up, declared at index `pos`.
[[nodiscard]] ResolvedTerm resolve_term(const Term& t, MetaRef meta,
                                        std::uint32_t pos);

/// A conjunction's success probability and expected cost.
struct ConjunctionScore {
  double success = 0.0;
  double ecost = 0.0;
};

/// The AND rule: sort `terms` by descending efficiency (declaration order
/// among ties) and score the sorted order.
ConjunctionScore and_rule_order(std::span<ResolvedTerm> terms);

/// Sort `terms` by descending validity (declaration order among ties): the
/// LVF order, and the variational LVF base order.
void validity_first_order(std::span<ResolvedTerm> terms);

/// Sort `terms` by ascending cost (declaration order among ties).
void cheapest_first_order(std::span<ResolvedTerm> terms);

/// The variational LVF order of `terms`, in place (see
/// variational_lvf_order).
void variational_lvf_in_place(std::span<ResolvedTerm> terms, SimTime start,
                              SimTime deadline);

/// One disjunct's terms, [begin, end) of a resolved-term buffer, and its
/// score under the AND rule.
struct ScoredSpan {
  std::uint32_t disjunct = 0;  ///< index in the expression
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ConjunctionScore score;
};

/// The OR rule: stable sort of `spans` by descending success probability
/// per unit expected cost.
void or_rule_order(std::span<ScoredSpan> spans);

/// order_conjunction, conjunction_success_prob and
/// expected_conjunction_cost in one pass: `meta` is called once per term.
[[nodiscard]] ConjunctionPlan plan_conjunction(const Conjunction& c,
                                               MetaRef meta);

/// A static evaluation plan for a DNF: which disjunct to try in which
/// order, and the term order within each.
struct DnfPlan {
  /// Indexes into the expression's disjunct list, in evaluation order.
  std::vector<std::size_t> disjunct_order;
  /// ordered_terms[k] is the term order for disjunct disjunct_order[k].
  std::vector<std::vector<Term>> ordered_terms;
};

/// Plan a DNF: within each disjunct apply the AND rule; across disjuncts
/// try the one with the highest success probability per unit expected cost
/// first (the OR short-circuit rule).
[[nodiscard]] DnfPlan plan_dnf(const DnfExpr& expr, MetaRef meta);

/// Expected cost of executing `plan` sequentially with short-circuiting
/// (labels independent, no sharing across disjuncts assumed).
[[nodiscard]] double expected_dnf_cost(const DnfPlan& plan, MetaRef meta);

/// Exact expected retrieval cost of sequentially evaluating `terms` in
/// order with short-circuit on first false — by enumerating all 2^n label
/// worlds. Handles repeated labels correctly (a repeated label is only paid
/// for once). Reference implementation for tests; n ≤ ~20.
[[nodiscard]] double exact_conjunction_cost_by_enumeration(
    std::span<const Term> terms, MetaRef meta);

/// Minimum expected conjunction cost over all term permutations
/// (brute force, n ≤ ~9). Returns {best order, best cost}.
struct BestOrder {
  std::vector<Term> order;
  double cost = 0.0;
};
[[nodiscard]] BestOrder optimal_conjunction_order(const Conjunction& c,
                                                  MetaRef meta);

/// Freshness feasibility of retrieving `terms` back-to-back in order
/// starting at `start`: every retrieved object must still be valid when the
/// last retrieval finishes, and the finish must not exceed `deadline`.
[[nodiscard]] bool order_feasible(std::span<const Term> terms,
                                  MetaRef meta, SimTime start,
                                  SimTime deadline);

/// Variational LVF (paper [3]): base order = longest validity first (which
/// maximizes freshness slack), then greedily apply adjacent swaps that
/// strictly reduce expected cost while keeping the order feasible.
/// If even the base LVF order is infeasible, it is returned anyway (the
/// caller learns of infeasibility via order_feasible).
[[nodiscard]] std::vector<Term> variational_lvf_order(const Conjunction& c,
                                                      MetaRef meta,
                                                      SimTime start,
                                                      SimTime deadline);

}  // namespace dde::decision
