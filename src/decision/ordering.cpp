#include "decision/ordering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>
#include <unordered_set>

#include "common/contracts.h"

namespace dde::decision {
namespace {

/// A term with its metadata and AND efficiency looked up once, so sorts,
/// swaps and feasibility checks over a conjunction call `meta` once per
/// term instead of once per comparison.
struct Resolved {
  Term term;
  LabelMeta meta;
  double efficiency = 0.0;  ///< (1 − p_true) / cost, as and_efficiency
};

std::vector<Resolved> resolve(std::span<const Term> terms,
                              MetaRef meta) {
  std::vector<Resolved> out;
  out.reserve(terms.size());
  for (const Term& t : terms) {
    const LabelMeta m = meta(t.label);
    const double p = t.negated ? 1.0 - m.p_true : m.p_true;
    out.push_back(Resolved{t, m, (1.0 - p) / std::max(m.cost, 1e-12)});
  }
  return out;
}

/// term_p_true for a resolved term.
double p_true_of(const Resolved& r) {
  return r.term.negated ? 1.0 - r.meta.p_true : r.meta.p_true;
}

/// expected_conjunction_cost over resolved terms.
double resolved_cost(std::span<const Resolved> terms) {
  double cost = 0.0;
  double p_reach = 1.0;  // probability evaluation reaches this term
  // Labels retrieved by earlier terms, with the truth value implied by the
  // evaluation having moved past them (a passed term fixes its label to
  // !negated). A repeated label is paid for once — the convention of
  // exact_conjunction_cost_by_enumeration's `paid` set — and contributes a
  // deterministic, not independent, factor to the reach probability.
  std::vector<std::pair<LabelId, bool>> settled;
  for (const Resolved& r : terms) {
    const Term& t = r.term;
    const auto known =
        std::find_if(settled.begin(), settled.end(),
                     [&](const auto& kv) { return kv.first == t.label; });
    if (known == settled.end()) {
      cost += p_reach * r.meta.cost;
      p_reach *= p_true_of(r);
      settled.emplace_back(t.label, !t.negated);
      continue;
    }
    // Already retrieved: no cost. The term's truth is determined; if it
    // contradicts the settled value, evaluation never proceeds past here.
    const bool term_true = t.negated ? !known->second : known->second;
    if (!term_true) break;  // p_reach for all later terms is 0
  }
  return cost;
}

/// conjunction_success_prob over resolved terms.
double resolved_success(std::span<const Resolved> terms) {
  double p = 1.0;
  for (const Resolved& r : terms) p *= p_true_of(r);
  return p;
}

/// Resolved terms of `c`, stably sorted by descending AND efficiency.
std::vector<Resolved> and_ordered(const Conjunction& c, MetaRef meta) {
  auto resolved = resolve(c.terms, meta);
  std::stable_sort(resolved.begin(), resolved.end(),
                   [](const Resolved& a, const Resolved& b) {
                     return a.efficiency > b.efficiency;
                   });
  return resolved;
}

std::vector<Term> terms_of(const std::vector<Resolved>& resolved) {
  std::vector<Term> out;
  out.reserve(resolved.size());
  for (const Resolved& r : resolved) out.push_back(r.term);
  return out;
}

bool resolved_feasible(const std::vector<Resolved>& terms, SimTime start,
                       SimTime deadline) {
  // Back-to-back retrievals; object k completes at start + sum latencies.
  // Compare against the remaining budget instead of summing into `finish`
  // first: an unreachable source reports latency = SimTime::max() (the
  // directory's sentinel), and adding that would overflow the signed tick
  // count. The budget form rejects it at the comparison, no arithmetic.
  if (start > deadline) return false;
  SimTime finish = start;
  for (const Resolved& r : terms) {
    if (r.meta.latency > deadline - finish) return false;
    finish += r.meta.latency;
  }
  SimTime done = start;
  for (const Resolved& r : terms) {
    done += r.meta.latency;
    // Data freshness (Sec. IV-A): the object retrieved at `done` must still
    // be valid when the last retrieval finishes (same overflow-safe form:
    // done <= finish, so the gap is a small non-negative duration).
    if (r.meta.validity < finish - done) return false;
  }
  return true;
}

}  // namespace

double term_p_true(const Term& t, MetaRef meta) {
  const double p = meta(t.label).p_true;
  return t.negated ? 1.0 - p : p;
}

double and_efficiency(const Term& t, MetaRef meta) {
  const double cost = std::max(meta(t.label).cost, 1e-12);
  return (1.0 - term_p_true(t, meta)) / cost;
}

std::vector<Term> order_conjunction(const Conjunction& c, MetaRef meta) {
  return terms_of(and_ordered(c, meta));
}

double expected_conjunction_cost(std::span<const Term> terms, MetaRef meta) {
  return resolved_cost(resolve(terms, meta));
}

double conjunction_success_prob(std::span<const Term> terms, MetaRef meta) {
  return resolved_success(resolve(terms, meta));
}

ConjunctionPlan plan_conjunction(const Conjunction& c, MetaRef meta) {
  const auto resolved = and_ordered(c, meta);
  return ConjunctionPlan{terms_of(resolved), resolved_success(resolved),
                         resolved_cost(resolved)};
}

DnfPlan plan_dnf(const DnfExpr& expr, MetaRef meta) {
  struct Scored {
    std::size_t index;
    ConjunctionPlan plan;
  };
  std::vector<Scored> scored;
  scored.reserve(expr.disjunct_count());
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    scored.push_back(Scored{i, plan_conjunction(expr.disjuncts()[i], meta)});
  }
  // OR rule: highest short-circuit (success) probability per unit expected
  // cost first.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.plan.success * std::max(b.plan.ecost, 1e-12) >
                            b.plan.success * std::max(a.plan.ecost, 1e-12);
                   });
  DnfPlan plan;
  for (auto& s : scored) {
    plan.disjunct_order.push_back(s.index);
    plan.ordered_terms.push_back(std::move(s.plan.order));
  }
  return plan;
}

double expected_dnf_cost(const DnfPlan& plan, MetaRef meta) {
  double cost = 0.0;
  double p_reach = 1.0;  // probability all previous disjuncts failed
  for (const auto& terms : plan.ordered_terms) {
    cost += p_reach * expected_conjunction_cost(terms, meta);
    p_reach *= 1.0 - conjunction_success_prob(terms, meta);
  }
  return cost;
}

double exact_conjunction_cost_by_enumeration(std::span<const Term> terms,
                                             MetaRef meta) {
  // Collect distinct labels.
  std::vector<LabelId> labels;
  for (const Term& t : terms) {
    if (std::find(labels.begin(), labels.end(), t.label) == labels.end()) {
      labels.push_back(t.label);
    }
  }
  DDE_CHECK(labels.size() <= 20,
            "exact_conjunction_cost_by_enumeration: >20 labels would "
            "enumerate >1M worlds");
  const std::size_t n = labels.size();
  double total = 0.0;
  for (std::uint64_t world = 0; world < (std::uint64_t{1} << n); ++world) {
    // Probability of this world and the truth of each label in it.
    double p_world = 1.0;
    std::unordered_map<LabelId, bool> truth;
    for (std::size_t i = 0; i < n; ++i) {
      const bool val = (world >> i) & 1;
      const double p = meta(labels[i]).p_true;
      p_world *= val ? p : 1.0 - p;
      truth[labels[i]] = val;
    }
    if (p_world == 0.0) continue;
    // Simulate sequential evaluation, paying each label's cost once.
    double cost = 0.0;
    std::unordered_set<LabelId> paid;
    for (const Term& t : terms) {
      if (paid.insert(t.label).second) cost += meta(t.label).cost;
      const bool term_true = t.negated ? !truth[t.label] : truth[t.label];
      if (!term_true) break;  // short-circuit
    }
    total += p_world * cost;
  }
  return total;
}

BestOrder optimal_conjunction_order(const Conjunction& c, MetaRef meta) {
  std::vector<Term> terms = c.terms;
  // Canonical starting permutation for std::next_permutation: order by an
  // arbitrary strict weak ordering over (label, negated).
  auto key_less = [](const Term& a, const Term& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.negated < b.negated;
  };
  std::sort(terms.begin(), terms.end(), key_less);
  BestOrder best;
  best.cost = std::numeric_limits<double>::infinity();
  do {
    const double cost = expected_conjunction_cost(terms, meta);
    if (cost < best.cost) {
      best.cost = cost;
      best.order = terms;
    }
  } while (std::next_permutation(terms.begin(), terms.end(), key_less));
  return best;
}

bool order_feasible(std::span<const Term> terms, MetaRef meta,
                    SimTime start, SimTime deadline) {
  return resolved_feasible(resolve(terms, meta), start, deadline);
}

std::vector<Term> variational_lvf_order(const Conjunction& c,
                                        MetaRef meta, SimTime start,
                                        SimTime deadline) {
  // Base: longest validity first maximizes every object's slack at finish.
  auto order = resolve(c.terms, meta);
  std::stable_sort(order.begin(), order.end(),
                   [](const Resolved& a, const Resolved& b) {
                     return a.meta.validity > b.meta.validity;
                   });
  // Greedy variational improvement: adjacent swaps that strictly reduce
  // expected cost while preserving feasibility. The expected cost of a
  // sequential AND evaluation improves under an adjacent swap iff the
  // (1−p)/C efficiency order improves, so comparing efficiencies suffices.
  if (!resolved_feasible(order, start, deadline)) {
    return terms_of(order);  // caller detects infeasibility
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      if (order[i + 1].efficiency <= order[i].efficiency) {
        continue;  // swap would not reduce expected cost
      }
      std::swap(order[i], order[i + 1]);
      if (resolved_feasible(order, start, deadline)) {
        changed = true;
      } else {
        std::swap(order[i], order[i + 1]);  // revert
      }
    }
  }
  return terms_of(order);
}

}  // namespace dde::decision
