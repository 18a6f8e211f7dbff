// Stopping-condition coverage: the deadline, combined limits, and the
// DFS strategy under budgets (the best-first paths are covered in
// test_engine.cpp).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/search_control.h"
#include "fsp/brute_force.h"
#include "fsp/generators.h"

namespace fsbb::core {
namespace {

fsp::Instance hard_instance(std::uint64_t seed) {
  // 13 jobs x 10 machines uniform: far too big to finish within a
  // millisecond-scale limit, small enough to build instantly.
  return fsp::make_instance(fsp::InstanceFamily::kUniform, 13, 10, seed);
}

TEST(EngineLimits, TimeLimitStopsTheSearch) {
  const fsp::Instance inst = hard_instance(3);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  SearchControl control;
  control.set_deadline_after(0.05);
  EngineOptions options;
  options.initial_ub = inst.total_work();
  options.control = &control;
  options.collect_pool_on_stop = true;
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_FALSE(result.remaining_pool.empty());
  // Generous ceiling: the limit plus scheduling noise.
  EXPECT_LT(result.stats.wall_seconds, 2.0);
}

TEST(EngineLimits, ZeroLimitsMeanUnlimited) {
  const fsp::Instance inst =
      fsp::make_instance(fsp::InstanceFamily::kUniform, 8, 4, 5);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;  // all limits at their 0 defaults
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, fsp::brute_force(inst).makespan);
}

TEST(EngineLimits, NodeBudgetWinsWhenTighterThanTime) {
  const fsp::Instance inst = hard_instance(4);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  SearchControl control;
  control.set_deadline_after(3600);
  EngineOptions options;
  options.initial_ub = inst.total_work();
  options.node_budget = 3;
  options.control = &control;
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_LE(result.stats.branched, 3u);
}

TEST(EngineLimits, DfsWithBudgetKeepsDiving) {
  // Under DFS with a node budget, the deepest frontier node is at least as
  // deep as the budget allows (each branching dives one level).
  const fsp::Instance inst = hard_instance(5);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  options.strategy = SelectionStrategy::kDepthFirst;
  options.initial_ub = inst.total_work();
  options.node_budget = 10;
  options.collect_pool_on_stop = true;
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  ASSERT_FALSE(result.remaining_pool.empty());
  std::int32_t max_depth = 0;
  for (const Subproblem& sp : result.remaining_pool) {
    max_depth = std::max(max_depth, sp.depth);
  }
  EXPECT_GE(max_depth, 5);
}

TEST(EngineLimits, DfsAndBestFirstAgreeOnTheOptimum) {
  const fsp::Instance inst =
      fsp::make_instance(fsp::InstanceFamily::kTwoPlateaus, 9, 5, 8);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);
  for (const auto strategy :
       {SelectionStrategy::kDepthFirst, SelectionStrategy::kBestFirst}) {
    SerialCpuEvaluator eval(inst, data);
    EngineOptions options;
    options.strategy = strategy;
    BBEngine engine(inst, data, eval, options);
    const SolveResult result = engine.solve();
    ASSERT_TRUE(result.proven_optimal) << to_string(strategy);
    ASSERT_EQ(result.best_makespan, opt.makespan) << to_string(strategy);
  }
}

}  // namespace
}  // namespace fsbb::core
