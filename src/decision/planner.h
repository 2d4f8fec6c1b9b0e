// Adaptive retrieval planner.
//
// At runtime, evidence arrives incrementally and each arrival can
// short-circuit part of the expression. The planner answers: given the
// current (freshness-aware) partial assignment, which labels should be
// resolved next, in what order? The policies mirror the retrieval schemes
// evaluated in Sec. VII.
#pragma once

#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "decision/expression.h"
#include "decision/metadata.h"
#include "decision/ordering.h"

namespace dde::decision {

/// Retrieval-ordering policy (maps to the paper's evaluated schemes).
enum class OrderPolicy {
  kDeclared,        ///< declaration order (cmp / slt baselines)
  kCheapestFirst,   ///< lowest retrieval cost first (lcf)
  kShortCircuit,    ///< (1−p)/C AND rule + s/E[cost] OR rule
  kVariationalLvf,  ///< LVF with cost-improving rearrangement (lvf/lvfl)
};

/// Working buffers of plan_retrieval_order, owned by the caller so that
/// repeated plans reuse their capacity. Holds nothing between calls; one
/// scratch serves one planner call at a time.
struct PlanScratch {
  /// The open disjuncts' unknown terms (each label once per disjunct),
  /// back to back.
  std::vector<ResolvedTerm> terms;
  /// One span of `terms` per open disjunct.
  std::vector<ScoredSpan> open;
};

/// Ordered list of labels to resolve next for `expr` under `assignment` at
/// `now`. Labels already known (and fresh) or no longer able to influence
/// the outcome are excluded; the list is empty iff the query is resolved.
///
/// `deadline` bounds feasibility checks for validity-aware policies (pass
/// SimTime::max() when there is none).
///
/// One pass over the expression evaluates each term once and collects the
/// open disjuncts' unknown terms into `scratch`; each collected term's
/// metadata is looked up once, and the policy orders the collected terms in
/// place.
[[nodiscard]] std::vector<LabelId> plan_retrieval_order(
    const DnfExpr& expr, const Assignment& assignment, SimTime now,
    MetaRef meta, OrderPolicy policy, SimTime deadline,
    PlanScratch& scratch);

/// plan_retrieval_order with a scratch of its own.
[[nodiscard]] std::vector<LabelId> plan_retrieval_order(
    const DnfExpr& expr, const Assignment& assignment, SimTime now,
    MetaRef meta, OrderPolicy policy,
    SimTime deadline = SimTime::max());

/// First element of plan_retrieval_order, or nullopt if resolved.
[[nodiscard]] std::optional<LabelId> next_label(
    const DnfExpr& expr, const Assignment& assignment, SimTime now,
    MetaRef meta, OrderPolicy policy,
    SimTime deadline = SimTime::max());

}  // namespace dde::decision
