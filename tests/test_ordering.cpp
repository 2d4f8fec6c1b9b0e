#include "decision/ordering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dde::decision {
namespace {

Term term(std::uint64_t l) { return Term{LabelId{l}, false}; }

/// Metadata table used through these tests.
class MetaFixture {
 public:
  void set(std::uint64_t l, double cost, double p,
           SimTime latency = SimTime::seconds(1),
           SimTime validity = SimTime::seconds(100)) {
    table_.set(LabelId{l}, LabelMeta{cost, latency, p, validity});
  }
  [[nodiscard]] MetaFn fn() const { return table_.fn(); }

 private:
  MetaTable table_;
};

TEST(Ordering, PaperExampleFromSectionIIIA) {
  // Condition h: 4 MB clip, p=0.6; condition k: 5 MB clip, p=0.2.
  // The paper concludes k should be evaluated first, with expected cost
  // 5 + 0.2×4 = 5.8 versus 4 + 0.6×5 = 7.
  MetaFixture m;
  m.set(0, 4.0, 0.6);  // h
  m.set(1, 5.0, 0.2);  // k
  const Conjunction c{{term(0), term(1)}};
  const auto order = order_conjunction(c, m.fn());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].label, LabelId{1}) << "k goes first";
  EXPECT_NEAR(expected_conjunction_cost(order, m.fn()), 5.8, 1e-12);
  const std::vector<Term> reversed{term(0), term(1)};
  EXPECT_NEAR(expected_conjunction_cost(reversed, m.fn()), 7.0, 1e-12);
}

TEST(Ordering, AndEfficiencyMatchesFormula) {
  MetaFixture m;
  m.set(0, 4.0, 0.6);
  m.set(1, 5.0, 0.2);
  EXPECT_NEAR(and_efficiency(term(0), m.fn()), 0.1, 1e-12);
  EXPECT_NEAR(and_efficiency(term(1), m.fn()), 0.16, 1e-12);
}

TEST(Ordering, NegationFlipsProbability) {
  MetaFixture m;
  m.set(0, 1.0, 0.9);
  EXPECT_NEAR(term_p_true(Term{LabelId{0}, false}, m.fn()), 0.9, 1e-12);
  EXPECT_NEAR(term_p_true(Term{LabelId{0}, true}, m.fn()), 0.1, 1e-12);
  // A negated likely-true term is a likely short-circuiter.
  EXPECT_NEAR(and_efficiency(Term{LabelId{0}, true}, m.fn()), 0.9, 1e-12);
}

TEST(Ordering, SuccessProbability) {
  MetaFixture m;
  m.set(0, 1.0, 0.5);
  m.set(1, 1.0, 0.4);
  const std::vector<Term> ts{term(0), term(1)};
  EXPECT_NEAR(conjunction_success_prob(ts, m.fn()), 0.2, 1e-12);
  EXPECT_NEAR(conjunction_success_prob(std::vector<Term>{}, m.fn()), 1.0, 1e-12);
}

TEST(Ordering, ExpectedCostOfEmptyIsZero) {
  MetaFixture m;
  EXPECT_DOUBLE_EQ(expected_conjunction_cost(std::vector<Term>{}, m.fn()), 0.0);
}

// The (1−p)/C rule is provably optimal for independent conjunctions:
// check against brute force on random instances.
TEST(Ordering, GreedyConjunctionOrderIsOptimal) {
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.below(5);
    MetaFixture m;
    Conjunction c;
    for (std::size_t i = 0; i < n; ++i) {
      m.set(i, rng.uniform(0.1, 10.0), rng.uniform(0.05, 0.95));
      c.terms.push_back(term(i));
    }
    const auto greedy = order_conjunction(c, m.fn());
    const auto best = optimal_conjunction_order(c, m.fn());
    EXPECT_NEAR(expected_conjunction_cost(greedy, m.fn()), best.cost, 1e-9)
        << "greedy must match brute-force optimum";
  }
}

// Independence-formula expected cost must agree with exhaustive world
// enumeration when labels are distinct.
TEST(Ordering, ExpectedCostMatchesEnumeration) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.below(6);
    MetaFixture m;
    std::vector<Term> ts;
    for (std::size_t i = 0; i < n; ++i) {
      m.set(i, rng.uniform(0.5, 5.0), rng.uniform(0.0, 1.0));
      ts.push_back(term(i));
    }
    EXPECT_NEAR(expected_conjunction_cost(ts, m.fn()),
                exact_conjunction_cost_by_enumeration(ts, m.fn()), 1e-9);
  }
}

TEST(Ordering, EnumerationChargesRepeatedLabelOnce) {
  MetaFixture m;
  m.set(0, 3.0, 1.0);  // always true, cost 3
  const std::vector<Term> ts{term(0), term(0)};
  // Label 0 retrieved once, term repeats free.
  EXPECT_NEAR(exact_conjunction_cost_by_enumeration(ts, m.fn()), 3.0, 1e-12);
}

// Regression: expected_conjunction_cost used to charge a repeated label's
// cost again and re-multiply p_reach by its probability, so the always-true
// conjunction (0 ∧ 0) came out at 6 instead of the 3 the enumeration
// oracle computes.
TEST(Ordering, ExpectedCostChargesRepeatedLabelOnce) {
  MetaFixture m;
  m.set(0, 3.0, 1.0);
  const std::vector<Term> ts{term(0), term(0)};
  EXPECT_NEAR(expected_conjunction_cost(ts, m.fn()), 3.0, 1e-12);
}

// A term contradicting an earlier occurrence of its label (l ∧ ¬l) can
// never be passed: everything after it is unreachable and free.
TEST(Ordering, ExpectedCostStopsAtContradictedRepeat) {
  MetaFixture m;
  m.set(0, 2.0, 0.5);
  m.set(1, 100.0, 0.5);
  const std::vector<Term> ts{term(0), Term{LabelId{0}, true}, term(1)};
  // Label 0 paid once; label 1 never reached.
  EXPECT_NEAR(expected_conjunction_cost(ts, m.fn()), 2.0, 1e-12);
  EXPECT_NEAR(expected_conjunction_cost(ts, m.fn()),
              exact_conjunction_cost_by_enumeration(ts, m.fn()), 1e-12);
}

// Property: with labels drawn from a small pool (repeats and mixed
// polarities likely), the closed form must agree with world enumeration.
TEST(Ordering, ExpectedCostMatchesEnumerationWithRepeatedLabels) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    MetaFixture m;
    for (std::uint64_t l = 0; l < 3; ++l) {
      m.set(l, rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.95));
    }
    std::vector<Term> ts;
    for (std::size_t i = 0, n = 2 + rng.below(4); i < n; ++i) {
      ts.push_back(Term{LabelId{rng.below(3)}, rng.chance(0.5)});
    }
    EXPECT_NEAR(expected_conjunction_cost(ts, m.fn()),
                exact_conjunction_cost_by_enumeration(ts, m.fn()), 1e-9);
  }
}

TEST(Ordering, PlanDnfOrdersDisjunctsBySuccessPerCost) {
  MetaFixture m;
  // Disjunct 0: success 0.9, cost 10 → 0.09 per unit.
  m.set(0, 10.0, 0.9);
  // Disjunct 1: success 0.5, cost 1 → 0.5 per unit. Should go first.
  m.set(1, 1.0, 0.5);
  DnfExpr e;
  e.add_disjunct(Conjunction{{term(0)}});
  e.add_disjunct(Conjunction{{term(1)}});
  const auto plan = plan_dnf(e, m.fn());
  ASSERT_EQ(plan.disjunct_order.size(), 2u);
  EXPECT_EQ(plan.disjunct_order[0], 1u);
  // Expected cost: 1 + (1-0.5)*10 = 6, vs 10 + 0.1*1 = 10.1 the other way.
  EXPECT_NEAR(expected_dnf_cost(plan, m.fn()), 6.0, 1e-12);
}

TEST(Ordering, PlanAppliesAndRuleInsideDisjuncts) {
  MetaFixture m;
  m.set(0, 4.0, 0.6);
  m.set(1, 5.0, 0.2);
  DnfExpr e;
  e.add_disjunct(Conjunction{{term(0), term(1)}});
  const auto plan = plan_dnf(e, m.fn());
  ASSERT_EQ(plan.ordered_terms.size(), 1u);
  EXPECT_EQ(plan.ordered_terms[0][0].label, LabelId{1});
}

TEST(Ordering, FeasibilityHonoursDeadline) {
  MetaFixture m;
  m.set(0, 1.0, 0.5, SimTime::seconds(10), SimTime::seconds(1000));
  m.set(1, 1.0, 0.5, SimTime::seconds(10), SimTime::seconds(1000));
  const std::vector<Term> ts{term(0), term(1)};
  EXPECT_TRUE(order_feasible(ts, m.fn(), SimTime::zero(), SimTime::seconds(20)));
  EXPECT_FALSE(order_feasible(ts, m.fn(), SimTime::zero(), SimTime::seconds(19)));
  // Start offset shifts the finish past the deadline.
  EXPECT_FALSE(
      order_feasible(ts, m.fn(), SimTime::seconds(5), SimTime::seconds(20)));
}

TEST(Ordering, FeasibilityHonoursFreshness) {
  MetaFixture m;
  // First object: valid 5s, retrieved at t=10 (latency 10), finish t=20:
  // 10 + 5 < 20 → stale at decision time.
  m.set(0, 1.0, 0.5, SimTime::seconds(10), SimTime::seconds(5));
  m.set(1, 1.0, 0.5, SimTime::seconds(10), SimTime::seconds(1000));
  const std::vector<Term> bad{term(0), term(1)};
  EXPECT_FALSE(
      order_feasible(bad, m.fn(), SimTime::zero(), SimTime::seconds(100)));
  // Retrieving the volatile object last keeps it fresh at the finish.
  const std::vector<Term> good{term(1), term(0)};
  EXPECT_TRUE(
      order_feasible(good, m.fn(), SimTime::zero(), SimTime::seconds(100)));
}

TEST(Ordering, VariationalLvfKeepsFeasibility) {
  MetaFixture m;
  // Volatile object must go last even if it is the best short-circuiter.
  m.set(0, 1.0, 0.1, SimTime::seconds(10), SimTime::seconds(8));  // cheap killer, volatile
  m.set(1, 10.0, 0.9, SimTime::seconds(10), SimTime::seconds(1000));
  const Conjunction c{{term(0), term(1)}};
  const auto order =
      variational_lvf_order(c, m.fn(), SimTime::zero(), SimTime::seconds(100));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].label, LabelId{1});
  EXPECT_EQ(order[1].label, LabelId{0});
  EXPECT_TRUE(order_feasible(order, m.fn(), SimTime::zero(),
                             SimTime::seconds(100)));
}

TEST(Ordering, VariationalLvfImprovesCostWhenSlackAllows) {
  MetaFixture m;
  // Both objects long-validity: rearrangement by efficiency is free, so the
  // variational step must recover the pure short-circuit order.
  m.set(0, 4.0, 0.6, SimTime::seconds(1), SimTime::seconds(1000));
  m.set(1, 5.0, 0.2, SimTime::seconds(1), SimTime::seconds(1000));
  const Conjunction c{{term(0), term(1)}};
  const auto order =
      variational_lvf_order(c, m.fn(), SimTime::zero(), SimTime::seconds(100));
  EXPECT_EQ(order[0].label, LabelId{1});
}

// Property: variational LVF never costs more than the pure LVF base order
// and stays feasible whenever the base order was feasible.
TEST(Ordering, VariationalLvfDominatesPureLvf) {
  Rng rng(55);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.below(5);
    MetaFixture m;
    Conjunction c;
    for (std::size_t i = 0; i < n; ++i) {
      m.set(i, rng.uniform(0.5, 8.0), rng.uniform(0.05, 0.95),
            SimTime::seconds(rng.uniform(1, 5)),
            SimTime::seconds(rng.uniform(5, 60)));
      c.terms.push_back(term(i));
    }
    const SimTime deadline = SimTime::seconds(rng.uniform(10, 40));
    // Pure LVF base order.
    std::vector<Term> lvf = c.terms;
    std::stable_sort(lvf.begin(), lvf.end(), [&](const Term& a, const Term& b) {
      return m.fn()(a.label).validity > m.fn()(b.label).validity;
    });
    const auto var = variational_lvf_order(c, m.fn(), SimTime::zero(), deadline);
    EXPECT_LE(expected_conjunction_cost(var, m.fn()),
              expected_conjunction_cost(lvf, m.fn()) + 1e-9);
    if (order_feasible(lvf, m.fn(), SimTime::zero(), deadline)) {
      EXPECT_TRUE(order_feasible(var, m.fn(), SimTime::zero(), deadline));
    }
  }
}

/// The orderings as they stood before terms were resolved once per call:
/// `meta` is called inside every comparison and every feasibility check.
/// The resolved versions must return exactly these orders.
namespace per_call {

std::vector<Term> order_conjunction(const Conjunction& c, const MetaFn& meta) {
  std::vector<Term> terms = c.terms;
  std::stable_sort(terms.begin(), terms.end(),
                   [&](const Term& a, const Term& b) {
                     return and_efficiency(a, meta) > and_efficiency(b, meta);
                   });
  return terms;
}

bool order_feasible(std::span<const Term> terms, const MetaFn& meta,
                    SimTime start, SimTime deadline) {
  if (start > deadline) return false;
  SimTime finish = start;
  for (const Term& t : terms) {
    const SimTime latency = meta(t.label).latency;
    if (latency > deadline - finish) return false;
    finish += latency;
  }
  SimTime done = start;
  for (const Term& t : terms) {
    const LabelMeta m = meta(t.label);
    done += m.latency;
    if (m.validity < finish - done) return false;
  }
  return true;
}

std::vector<Term> variational_lvf_order(const Conjunction& c,
                                        const MetaFn& meta, SimTime start,
                                        SimTime deadline) {
  std::vector<Term> order = c.terms;
  std::stable_sort(order.begin(), order.end(),
                   [&](const Term& a, const Term& b) {
                     return meta(a.label).validity > meta(b.label).validity;
                   });
  if (!per_call::order_feasible(order, meta, start, deadline)) return order;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      if (and_efficiency(order[i + 1], meta) <=
          and_efficiency(order[i], meta)) {
        continue;
      }
      std::swap(order[i], order[i + 1]);
      if (per_call::order_feasible(order, meta, start, deadline)) {
        changed = true;
      } else {
        std::swap(order[i], order[i + 1]);
      }
    }
  }
  return order;
}

}  // namespace per_call

// Metadata drawn from small value sets so equal efficiencies and equal
// validities (sort ties) are common; some terms are negated and some
// sources unreachable (latency SimTime::max(), the directory's sentinel).
TEST(Ordering, ResolvedOrdersMatchPerCallMetaOrders) {
  Rng rng(404);
  const double costs[] = {1.0, 2.0, 4.0};
  const double ps[] = {0.25, 0.5, 0.75};
  const double validities[] = {5.0, 20.0, 1000.0};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.below(7);
    MetaFixture m;
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime latency = rng.chance(0.1)
                                  ? SimTime::max()
                                  : SimTime::seconds(1 + rng.below(4));
      m.set(i, costs[rng.below(3)], ps[rng.below(3)], latency,
            SimTime::seconds(validities[rng.below(3)]));
    }
    Conjunction c;
    for (std::size_t t = 0, k = 1 + rng.below(7); t < k; ++t) {
      c.terms.push_back(Term{LabelId{rng.below(n)}, rng.chance(0.3)});
    }
    const SimTime start = SimTime::seconds(rng.below(5));
    const SimTime deadline = rng.chance(0.2)
                                 ? SimTime::max()
                                 : SimTime::seconds(rng.uniform(2, 40));
    EXPECT_EQ(order_conjunction(c, m.fn()),
              per_call::order_conjunction(c, m.fn()))
        << "trial " << trial;
    EXPECT_EQ(variational_lvf_order(c, m.fn(), start, deadline),
              per_call::variational_lvf_order(c, m.fn(), start, deadline))
        << "trial " << trial;
    EXPECT_EQ(order_feasible(c.terms, m.fn(), start, deadline),
              per_call::order_feasible(c.terms, m.fn(), start, deadline))
        << "trial " << trial;
  }
}

TEST(Ordering, OptimalOrderHandlesTinyCosts) {
  MetaFixture m;
  m.set(0, 1e-15, 0.5);
  m.set(1, 1.0, 0.5);
  const Conjunction c{{term(0), term(1)}};
  const auto order = order_conjunction(c, m.fn());
  EXPECT_EQ(order[0].label, LabelId{0});  // near-free killer first
}

}  // namespace
}  // namespace dde::decision
