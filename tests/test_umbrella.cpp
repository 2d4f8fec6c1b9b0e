// The umbrella header must compile standalone and expose the whole API.
#include "dde.h"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, ExposesEveryNamespace) {
  // Touch one symbol per namespace; compilation is the real assertion.
  dde::Rng rng(1);
  (void)rng.uniform();
  dde::des::Simulator sim;
  EXPECT_EQ(sim.now(), dde::SimTime::zero());
  dde::naming::Name name = dde::naming::Name::parse("/a/b");
  EXPECT_EQ(name.size(), 2u);
  dde::decision::DnfExpr expr;
  EXPECT_TRUE(expr.empty());
  dde::coverage::CoverInstance cover;
  EXPECT_TRUE(dde::coverage::greedy_cover(cover).covered);
  dde::fusion::LabelBelief belief;
  EXPECT_NEAR(belief.p_true(), 0.5, 1e-12);
  dde::workflow::WorkflowGraph graph;
  EXPECT_EQ(graph.point_count(), 0u);
  dde::pubsub::Item item;
  EXPECT_DOUBLE_EQ(dde::pubsub::marginal_utility(item, {}), 1.0);
  dde::sched::DecisionTask task;
  EXPECT_TRUE(dde::sched::single_task_feasible(task));
  dde::cache::TtlCache<int, int> cache(4);
  EXPECT_EQ(cache.size(), 0u);
  dde::scenario::ScenarioConfig cfg;
  EXPECT_EQ(cfg.grid_width, 8);
  dde::athena::AthenaConfig ac = dde::athena::config_for(
      dde::athena::Scheme::kLvfl);
  EXPECT_TRUE(ac.label_sharing());
  dde::world::ThresholdPredicate pred{1.0, true};
  EXPECT_TRUE(pred.evaluate(2.0));
}

}  // namespace
