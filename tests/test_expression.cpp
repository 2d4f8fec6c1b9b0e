#include "decision/expression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace dde::decision {
namespace {

LabelValue val(std::uint64_t label, Tristate v,
               SimTime at = SimTime::zero(),
               SimTime validity = SimTime::seconds(100)) {
  LabelValue lv;
  lv.label = LabelId{label};
  lv.value = v;
  lv.evaluated_at = at;
  lv.validity = validity;
  lv.annotator = AnnotatorId{0};
  return lv;
}

DnfExpr route_example() {
  // (A ∧ B ∧ C) ∨ (D ∧ E ∧ F) — the paper's Sec. II example.
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{0}}, {LabelId{1}}, {LabelId{2}}}});
  e.add_disjunct(Conjunction{{{LabelId{3}}, {LabelId{4}}, {LabelId{5}}}});
  return e;
}

TEST(Assignment, LabelValueFitsSixtyFourBytes) {
  // Every label-cache slot and assignment entry holds one LabelValue; pinned
  // so its footprint cannot grow back unnoticed.
  static_assert(sizeof(LabelValue) <= 64);
  SUCCEED();
}

TEST(Assignment, UnknownByDefault) {
  Assignment a;
  EXPECT_EQ(a.value_at(LabelId{0}, SimTime::zero()), Tristate::kUnknown);
  EXPECT_EQ(a.record(LabelId{0}), nullptr);
}

TEST(Assignment, SetAndRead) {
  Assignment a;
  a.set(val(1, Tristate::kTrue));
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::seconds(1)), Tristate::kTrue);
  ASSERT_NE(a.record(LabelId{1}), nullptr);
}

TEST(Assignment, ExpiredValueReadsUnknown) {
  Assignment a;
  a.set(val(1, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::seconds(9)), Tristate::kTrue);
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::seconds(10)), Tristate::kUnknown);
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::seconds(11)), Tristate::kUnknown);
  // The record itself survives (provenance), only freshness is gone.
  EXPECT_NE(a.record(LabelId{1}), nullptr);
}

TEST(Assignment, EarliestExpiry) {
  Assignment a;
  EXPECT_EQ(a.earliest_expiry(SimTime::zero()), SimTime::max());
  a.set(val(1, Tristate::kTrue, SimTime::zero(), SimTime::seconds(50)));
  a.set(val(2, Tristate::kFalse, SimTime::zero(), SimTime::seconds(20)));
  EXPECT_EQ(a.earliest_expiry(SimTime::zero()), SimTime::seconds(20));
  // After label 2 expires, only label 1 counts.
  EXPECT_EQ(a.earliest_expiry(SimTime::seconds(30)), SimTime::seconds(50));
}

TEST(Assignment, InvalidateReopens) {
  Assignment a;
  a.set(val(1, Tristate::kTrue));
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::zero()), Tristate::kTrue);
  a.invalidate(LabelId{1});
  EXPECT_EQ(a.value_at(LabelId{1}, SimTime::zero()), Tristate::kUnknown);
  EXPECT_EQ(a.record(LabelId{1}), nullptr);
  a.invalidate(LabelId{9});  // unknown labels are a no-op
}

// Every mutation bumps the version, whether or not it changes a lookup:
// callers compare versions to skip re-evaluating an unchanged assignment.
TEST(Assignment, VersionAdvancesOnEveryMutation) {
  Assignment a;
  std::uint64_t last = a.version();
  const auto bumped = [&] {
    const bool moved = a.version() > last;
    last = a.version();
    return moved;
  };
  a.set(val(1, Tristate::kTrue));
  EXPECT_TRUE(bumped()) << "insert";
  a.set(val(1, Tristate::kTrue));
  EXPECT_TRUE(bumped()) << "overwrite with the same value";
  a.set(val(0, Tristate::kFalse));
  EXPECT_TRUE(bumped()) << "insert before an existing label";
  a.invalidate(LabelId{1});
  EXPECT_TRUE(bumped()) << "invalidate a known label";
  a.invalidate(LabelId{9});
  EXPECT_TRUE(bumped()) << "invalidate an unknown label";
  a.clear();
  EXPECT_TRUE(bumped()) << "clear";
  a.clear();
  EXPECT_TRUE(bumped()) << "clear an empty assignment";
  // Reads never do.
  (void)a.value_at(LabelId{0}, SimTime::zero());
  (void)a.record(LabelId{0});
  (void)a.earliest_expiry(SimTime::zero());
  EXPECT_FALSE(bumped());
}

TEST(Assignment, LowerIndexMatchesLowerBound) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<LabelId> labels;
    for (std::size_t i = 0, n = rng.below(12); i < n; ++i) {
      labels.push_back(LabelId{rng.below(20)});
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    for (std::uint64_t key = 0; key < 22; ++key) {
      const auto want = static_cast<std::size_t>(
          std::lower_bound(labels.begin(), labels.end(), LabelId{key}) -
          labels.begin());
      EXPECT_EQ(lower_index(labels, LabelId{key}), want)
          << "trial " << trial << " key " << key;
    }
  }
}

// Inserts in any order, overwrites and invalidations keep every label's own
// record: the flat layout matches a reference map.
TEST(Assignment, FlatLayoutMatchesReferenceMap) {
  Rng rng(18);
  Assignment a;
  std::vector<std::optional<Tristate>> ref(16);
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t l = rng.below(16);
    if (rng.chance(0.25)) {
      a.invalidate(LabelId{l});
      ref[l].reset();
    } else {
      const Tristate v = rng.chance(0.5) ? Tristate::kTrue : Tristate::kFalse;
      a.set(val(l, v));
      ref[l] = v;
    }
    std::size_t known = 0;
    for (std::uint64_t k = 0; k < ref.size(); ++k) {
      const LabelValue* rec = a.record(LabelId{k});
      ASSERT_EQ(rec != nullptr, ref[k].has_value()) << "step " << step;
      if (rec == nullptr) continue;
      ++known;
      EXPECT_EQ(rec->label, LabelId{k});
      EXPECT_EQ(a.value_at(LabelId{k}, SimTime::zero()), *ref[k]);
    }
    EXPECT_EQ(a.size(), known);
  }
}

TEST(DnfExpr, EmptyIsFalse) {
  DnfExpr e;
  Assignment a;
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
}

TEST(DnfExpr, UnknownWithoutEvidence) {
  const DnfExpr e = route_example();
  Assignment a;
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kUnknown);
  EXPECT_FALSE(e.resolved(a, SimTime::zero()));
}

TEST(DnfExpr, OneViableRouteResolvesTrue) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(0, Tristate::kTrue));
  a.set(val(1, Tristate::kTrue));
  a.set(val(2, Tristate::kTrue));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kTrue);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
  EXPECT_EQ(e.chosen_action(a, SimTime::zero()), std::size_t{0});
}

TEST(DnfExpr, OneFalseSegmentKillsDisjunctOnly) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(0, Tristate::kFalse));  // route 1 dead
  EXPECT_EQ(e.eval_disjunct(0, a, SimTime::zero()), Tristate::kFalse);
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kUnknown);
}

TEST(DnfExpr, AllRoutesFalseResolvesFalse) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(1, Tristate::kFalse));
  a.set(val(4, Tristate::kFalse));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
  EXPECT_FALSE(e.chosen_action(a, SimTime::zero()).has_value());
}

TEST(DnfExpr, NegatedTerm) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{0}, /*negated=*/true}}});
  Assignment a;
  a.set(val(0, Tristate::kFalse));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kTrue);
  a.set(val(0, Tristate::kTrue));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
}

TEST(DnfExpr, ExpiryReopensDecision) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(0, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  a.set(val(1, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  a.set(val(2, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  EXPECT_TRUE(e.resolved(a, SimTime::seconds(5)));
  EXPECT_FALSE(e.resolved(a, SimTime::seconds(15)));
}

TEST(DnfExpr, RelevantLabelsInitiallyAll) {
  const DnfExpr e = route_example();
  Assignment a;
  const auto labels = e.relevant_labels(a, SimTime::zero());
  EXPECT_EQ(labels.size(), 6u);
}

TEST(DnfExpr, RelevantLabelsShrinkWithShortCircuit) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(0, Tristate::kFalse));  // kills route 1: B, C irrelevant
  const auto labels = e.relevant_labels(a, SimTime::zero());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], LabelId{3});
  EXPECT_EQ(labels[1], LabelId{4});
  EXPECT_EQ(labels[2], LabelId{5});
}

TEST(DnfExpr, RelevantLabelsEmptyWhenResolved) {
  const DnfExpr e = route_example();
  Assignment a;
  a.set(val(3, Tristate::kTrue));
  a.set(val(4, Tristate::kTrue));
  a.set(val(5, Tristate::kTrue));
  EXPECT_TRUE(e.relevant_labels(a, SimTime::zero()).empty());
}

TEST(DnfExpr, RelevantLabelsDeduplicated) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{8}}}});
  e.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{9}}}});
  Assignment a;
  const auto labels = e.relevant_labels(a, SimTime::zero());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), LabelId{7}), 1);
}

TEST(DnfExpr, AllLabels) {
  const DnfExpr e = route_example();
  EXPECT_EQ(e.all_labels().size(), 6u);
  DnfExpr shared;
  shared.add_disjunct(Conjunction{{{LabelId{1}}, {LabelId{2}}}});
  shared.add_disjunct(Conjunction{{{LabelId{2}}, {LabelId{3}}}});
  EXPECT_EQ(shared.all_labels().size(), 3u);
}

// all_labels feeds query announces, the uncovered list and traces, so its
// order is observable: first appearance, across disjuncts too.
TEST(Expression, AllLabelsKeepsFirstAppearanceOrder) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{9}}, {LabelId{4}, true}, {LabelId{9}}}});
  e.add_disjunct(Conjunction{{{LabelId{2}}, {LabelId{4}}, {LabelId{7}, true}}});
  e.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{1}}, {LabelId{2}}}});
  EXPECT_EQ(e.all_labels(),
            (std::vector<LabelId>{LabelId{9}, LabelId{4}, LabelId{2},
                                  LabelId{7}, LabelId{1}}));
  EXPECT_TRUE(DnfExpr{}.all_labels().empty());
}

// The one-pass form must list what a linear first-appearance scan lists and
// sort it like std::sort, both for labels within the bitmap's 1024-label
// span (at its edge too) and for wider spans.
TEST(Expression, AllLabelsSortedMatchesScanAndSort) {
  Rng rng(29);
  const std::uint64_t spans[] = {1, 40, 1023, 1024, 1025, std::uint64_t{1} << 40};
  for (const std::uint64_t span : spans) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t base = rng.below(1000);
      DnfExpr e;
      const std::uint64_t disjuncts = rng.below(6);
      for (std::uint64_t d = 0; d < disjuncts; ++d) {
        Conjunction c;
        const std::uint64_t terms = rng.below(12);
        for (std::uint64_t i = 0; i < terms; ++i) {
          // Span edges often, so both ends of the range are exercised.
          const std::uint64_t offset =
              rng.chance(0.2) ? (rng.chance(0.5) ? 0 : span - 1)
                              : rng.below(std::min<std::uint64_t>(span, 48));
          c.terms.push_back(Term{LabelId{base + offset}, rng.chance(0.3)});
        }
        e.add_disjunct(std::move(c));
      }
      std::vector<LabelId> want;
      for (const Conjunction& c : e.disjuncts()) {
        for (const Term& t : c.terms) {
          if (std::find(want.begin(), want.end(), t.label) == want.end()) {
            want.push_back(t.label);
          }
        }
      }
      std::vector<LabelId> want_sorted = want;
      std::sort(want_sorted.begin(), want_sorted.end());
      std::vector<LabelId> sorted{LabelId{5}};  // stale content is cleared
      ASSERT_EQ(e.all_labels(sorted), want) << "span " << span;
      ASSERT_EQ(sorted, want_sorted) << "span " << span;
    }
  }
}

// Property test: Kleene evaluation agrees with classical Boolean evaluation
// on fully-known random assignments, and is never wrong on partial ones
// (if Kleene says true/false, every completion agrees).
TEST(DnfExpr, KleeneSoundOnRandomExpressions) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_labels = 1 + rng.below(6);
    DnfExpr e;
    const std::size_t n_disj = 1 + rng.below(3);
    for (std::size_t d = 0; d < n_disj; ++d) {
      Conjunction c;
      const std::size_t n_terms = 1 + rng.below(4);
      for (std::size_t t = 0; t < n_terms; ++t) {
        c.terms.push_back(Term{LabelId{rng.below(n_labels)}, rng.chance(0.3)});
      }
      e.add_disjunct(std::move(c));
    }
    // Random partial assignment.
    Assignment partial;
    std::vector<int> state(n_labels);  // 0 unknown, 1 true, 2 false
    for (std::size_t l = 0; l < n_labels; ++l) {
      state[l] = static_cast<int>(rng.below(3));
      if (state[l] == 1) partial.set(val(l, Tristate::kTrue));
      if (state[l] == 2) partial.set(val(l, Tristate::kFalse));
    }
    const Tristate partial_val = e.evaluate(partial, SimTime::zero());

    // Enumerate completions.
    std::vector<std::size_t> unknown;
    for (std::size_t l = 0; l < n_labels; ++l) {
      if (state[l] == 0) unknown.push_back(l);
    }
    bool all_true = true;
    bool all_false = true;
    for (std::uint64_t w = 0; w < (std::uint64_t{1} << unknown.size()); ++w) {
      Assignment full = partial;
      for (std::size_t i = 0; i < unknown.size(); ++i) {
        full.set(val(unknown[i], ((w >> i) & 1) ? Tristate::kTrue
                                                : Tristate::kFalse));
      }
      const Tristate v = e.evaluate(full, SimTime::zero());
      ASSERT_TRUE(is_known(v));  // fully known ⇒ classical value
      all_true &= v == Tristate::kTrue;
      all_false &= v == Tristate::kFalse;
    }
    if (partial_val == Tristate::kTrue) {
      EXPECT_TRUE(all_true);
    }
    if (partial_val == Tristate::kFalse) {
      EXPECT_TRUE(all_false);
    }
    // (Kleene may be unknown when the value is actually determined — that
    // is allowed; it is sound, not complete.)
  }
}

}  // namespace
}  // namespace dde::decision
