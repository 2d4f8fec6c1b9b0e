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

/// Stable insertion sort: the same result as std::stable_sort for a strict
/// weak order, without its temporary buffer. The spans sorted here are a
/// conjunction's terms or an expression's disjuncts, a few dozen at most.
template <typename T, typename Before>
void insertion_sort(std::span<T> items, Before before) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    T item = std::move(items[i]);
    std::size_t j = i;
    for (; j > 0 && before(item, items[j - 1]); --j) {
      items[j] = std::move(items[j - 1]);
    }
    items[j] = std::move(item);
  }
}

std::vector<ResolvedTerm> resolve(std::span<const Term> terms,
                                  MetaRef meta) {
  std::vector<ResolvedTerm> out;
  out.reserve(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    out.push_back(resolve_term(terms[i], meta, static_cast<std::uint32_t>(i)));
  }
  return out;
}

/// term_p_true for a resolved term.
double p_true_of(const ResolvedTerm& r) {
  return r.term.negated ? 1.0 - r.meta.p_true : r.meta.p_true;
}

/// expected_conjunction_cost over resolved terms.
double resolved_cost(std::span<const ResolvedTerm> terms) {
  double cost = 0.0;
  double p_reach = 1.0;  // probability evaluation reaches this term
  for (std::size_t k = 0; k < terms.size(); ++k) {
    const Term& t = terms[k].term;
    // A label retrieved by an earlier term is paid for once — the
    // convention of exact_conjunction_cost_by_enumeration's `paid` set —
    // and contributes a deterministic, not independent, factor to the
    // reach probability: evaluation moving past its first term fixed the
    // label to !negated.
    const auto first = std::find_if(
        terms.begin(), terms.begin() + static_cast<std::ptrdiff_t>(k),
        [&](const ResolvedTerm& r) { return r.term.label == t.label; });
    if (first == terms.begin() + static_cast<std::ptrdiff_t>(k)) {
      cost += p_reach * terms[k].meta.cost;
      p_reach *= p_true_of(terms[k]);
      continue;
    }
    // Already retrieved: no cost. The term's truth is determined; if it
    // contradicts the settled value, evaluation never proceeds past here.
    const bool settled = !first->term.negated;
    const bool term_true = t.negated ? !settled : settled;
    if (!term_true) break;  // p_reach for all later terms is 0
  }
  return cost;
}

/// conjunction_success_prob over resolved terms.
double resolved_success(std::span<const ResolvedTerm> terms) {
  double p = 1.0;
  for (const ResolvedTerm& r : terms) p *= p_true_of(r);
  return p;
}

std::vector<Term> terms_of(std::span<const ResolvedTerm> resolved) {
  std::vector<Term> out;
  out.reserve(resolved.size());
  for (const ResolvedTerm& r : resolved) out.push_back(r.term);
  return out;
}

bool resolved_feasible(std::span<const ResolvedTerm> terms, SimTime start,
                       SimTime deadline) {
  // Back-to-back retrievals; object k completes at start + sum latencies.
  // Compare against the remaining budget instead of summing into `finish`
  // first: an unreachable source reports latency = SimTime::max() (the
  // directory's sentinel), and adding that would overflow the signed tick
  // count. The budget form rejects it at the comparison, no arithmetic.
  if (start > deadline) return false;
  SimTime finish = start;
  for (const ResolvedTerm& r : terms) {
    if (r.meta.latency > deadline - finish) return false;
    finish += r.meta.latency;
  }
  SimTime done = start;
  for (const ResolvedTerm& r : terms) {
    done += r.meta.latency;
    // Data freshness (Sec. IV-A): the object retrieved at `done` must still
    // be valid when the last retrieval finishes (same overflow-safe form:
    // done <= finish, so the gap is a small non-negative duration).
    if (r.meta.validity < finish - done) return false;
  }
  return true;
}

}  // namespace

ResolvedTerm resolve_term(const Term& t, MetaRef meta, std::uint32_t pos) {
  const LabelMeta m = meta(t.label);
  const double p = t.negated ? 1.0 - m.p_true : m.p_true;
  return ResolvedTerm{t, m, (1.0 - p) / std::max(m.cost, 1e-12), pos};
}

ConjunctionScore and_rule_order(std::span<ResolvedTerm> terms) {
  insertion_sort(terms, [](const ResolvedTerm& a, const ResolvedTerm& b) {
    if (a.efficiency != b.efficiency) return a.efficiency > b.efficiency;
    return a.pos < b.pos;
  });
  return ConjunctionScore{resolved_success(terms), resolved_cost(terms)};
}

void validity_first_order(std::span<ResolvedTerm> terms) {
  insertion_sort(terms, [](const ResolvedTerm& a, const ResolvedTerm& b) {
    if (a.meta.validity != b.meta.validity) {
      return a.meta.validity > b.meta.validity;
    }
    return a.pos < b.pos;
  });
}

void cheapest_first_order(std::span<ResolvedTerm> terms) {
  insertion_sort(terms, [](const ResolvedTerm& a, const ResolvedTerm& b) {
    if (a.meta.cost != b.meta.cost) return a.meta.cost < b.meta.cost;
    return a.pos < b.pos;
  });
}

void variational_lvf_in_place(std::span<ResolvedTerm> order, SimTime start,
                              SimTime deadline) {
  // Base: longest validity first maximizes every object's slack at finish.
  validity_first_order(order);
  // Greedy variational improvement: adjacent swaps that strictly reduce
  // expected cost while preserving feasibility. The expected cost of a
  // sequential AND evaluation improves under an adjacent swap iff the
  // (1−p)/C efficiency order improves, so comparing efficiencies suffices.
  if (!resolved_feasible(order, start, deadline)) {
    return;  // caller detects infeasibility
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
}

void or_rule_order(std::span<ScoredSpan> spans) {
  insertion_sort(spans, [](const ScoredSpan& x, const ScoredSpan& y) {
    return x.score.success * std::max(y.score.ecost, 1e-12) >
           y.score.success * std::max(x.score.ecost, 1e-12);
  });
}

double term_p_true(const Term& t, MetaRef meta) {
  const double p = meta(t.label).p_true;
  return t.negated ? 1.0 - p : p;
}

double and_efficiency(const Term& t, MetaRef meta) {
  const double cost = std::max(meta(t.label).cost, 1e-12);
  return (1.0 - term_p_true(t, meta)) / cost;
}

std::vector<Term> order_conjunction(const Conjunction& c, MetaRef meta) {
  auto resolved = resolve(c.terms, meta);
  and_rule_order(resolved);
  return terms_of(resolved);
}

double expected_conjunction_cost(std::span<const Term> terms, MetaRef meta) {
  return resolved_cost(resolve(terms, meta));
}

double conjunction_success_prob(std::span<const Term> terms, MetaRef meta) {
  return resolved_success(resolve(terms, meta));
}

ConjunctionPlan plan_conjunction(const Conjunction& c, MetaRef meta) {
  auto resolved = resolve(c.terms, meta);
  const ConjunctionScore score = and_rule_order(resolved);
  return ConjunctionPlan{terms_of(resolved), score.success, score.ecost};
}

DnfPlan plan_dnf(const DnfExpr& expr, MetaRef meta) {
  // Every disjunct's terms back to back, each span ordered by the AND
  // rule, the spans by the OR rule.
  std::vector<ResolvedTerm> terms;
  std::vector<ScoredSpan> spans;
  spans.reserve(expr.disjunct_count());
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    ScoredSpan d;
    d.disjunct = static_cast<std::uint32_t>(i);
    d.begin = static_cast<std::uint32_t>(terms.size());
    const auto& ts = expr.disjuncts()[i].terms;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      terms.push_back(resolve_term(ts[k], meta, static_cast<std::uint32_t>(k)));
    }
    d.end = static_cast<std::uint32_t>(terms.size());
    d.score =
        and_rule_order(std::span(terms).subspan(d.begin, d.end - d.begin));
    spans.push_back(d);
  }
  or_rule_order(spans);
  DnfPlan plan;
  for (const ScoredSpan& d : spans) {
    plan.disjunct_order.push_back(d.disjunct);
    plan.ordered_terms.push_back(
        terms_of(std::span(terms).subspan(d.begin, d.end - d.begin)));
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
  auto order = resolve(c.terms, meta);
  variational_lvf_in_place(order, start, deadline);
  return terms_of(order);
}

}  // namespace dde::decision
