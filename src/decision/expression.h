// Decision expressions: disjunctive normal form over labels (Sec. III).
//
//   q = (b00 ∧ b01 ∧ …) ∨ (b10 ∧ b11 ∧ …) ∨ …
//
// Each disjunct is a candidate course of action; the query is resolved when
// one disjunct is known true (a viable course of action exists) or all are
// known false (none exists). Evaluation uses Kleene three-valued logic over
// a partial, freshness-aware assignment.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/tristate.h"
#include "decision/label.h"

namespace dde::decision {

/// A literal: a label, possibly negated.
struct Term {
  LabelId label;
  bool negated = false;

  friend bool operator==(const Term&, const Term&) = default;
};

/// A conjunction of terms: one candidate course of action.
struct Conjunction {
  std::vector<Term> terms;

  friend bool operator==(const Conjunction&, const Conjunction&) = default;
};

/// A decision expression in DNF.
class DnfExpr {
 public:
  DnfExpr() = default;
  explicit DnfExpr(std::vector<Conjunction> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  [[nodiscard]] const std::vector<Conjunction>& disjuncts() const noexcept {
    return disjuncts_;
  }
  [[nodiscard]] std::size_t disjunct_count() const noexcept {
    return disjuncts_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return disjuncts_.empty(); }

  /// Add one course of action. Returns its index.
  std::size_t add_disjunct(Conjunction c) {
    disjuncts_.push_back(std::move(c));
    return disjuncts_.size() - 1;
  }

  /// Value of a single term under `a` at `now` (Kleene).
  [[nodiscard]] static Tristate eval_term(const Term& t, const Assignment& a,
                                          SimTime now) {
    const Tristate v = a.value_at(t.label, now);
    return t.negated ? !v : v;
  }

  /// Value of disjunct `i` under `a` at `now` (Kleene AND).
  [[nodiscard]] Tristate eval_disjunct(std::size_t i, const Assignment& a,
                                       SimTime now) const {
    Tristate acc = Tristate::kTrue;
    for (const Term& t : disjuncts_.at(i).terms) {
      acc = acc && eval_term(t, a, now);
      if (acc == Tristate::kFalse) return acc;  // short-circuit
    }
    return acc;
  }

  /// Value of the whole expression under `a` at `now` (Kleene OR of ANDs).
  [[nodiscard]] Tristate evaluate(const Assignment& a, SimTime now) const {
    Tristate acc = Tristate::kFalse;
    for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
      acc = acc || eval_disjunct(i, a, now);
      if (acc == Tristate::kTrue) return acc;  // short-circuit
    }
    return acc;
  }

  /// True when the decision can be made: some course of action is known
  /// viable, or all are known non-viable.
  [[nodiscard]] bool resolved(const Assignment& a, SimTime now) const {
    return evaluate(a, now) != Tristate::kUnknown;
  }

  /// Index of the first disjunct known true (the chosen course of action).
  [[nodiscard]] std::optional<std::size_t> chosen_action(const Assignment& a,
                                                         SimTime now) const {
    for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
      if (eval_disjunct(i, a, now) == Tristate::kTrue) return i;
    }
    return std::nullopt;
  }

  /// Labels that can still influence the outcome under `a` at `now`:
  /// unknown-valued terms of disjuncts that are not already false.
  /// Deduplicated, in first-appearance order. Empty iff resolved.
  [[nodiscard]] std::vector<LabelId> relevant_labels(const Assignment& a,
                                                     SimTime now) const;

  /// All distinct labels mentioned anywhere, in first-appearance order.
  [[nodiscard]] std::vector<LabelId> all_labels() const;

  /// As all_labels(), from the same pass also writing the labels in
  /// ascending order to `sorted` (cleared first).
  [[nodiscard]] std::vector<LabelId> all_labels(
      std::vector<LabelId>& sorted) const;

 private:
  std::vector<Conjunction> disjuncts_;
};

}  // namespace dde::decision
