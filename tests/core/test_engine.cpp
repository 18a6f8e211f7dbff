#include "core/engine.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "fsp/brute_force.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"

namespace fsbb::core {
namespace {

fsp::Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<fsp::Time> pt(static_cast<std::size_t>(jobs),
                       static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<fsp::Time>(rng.next_in(1, 50));
  return fsp::Instance("rand", std::move(pt));
}

// (seed, strategy, batch_size)
using EngineCase = std::tuple<int, SelectionStrategy, int>;

class EngineVsBruteForce : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineVsBruteForce, FindsTheOptimum) {
  const auto [seed, strategy, batch] = GetParam();
  const fsp::Instance inst =
      random_instance(7, 3 + seed % 3, static_cast<std::uint64_t>(seed));
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  options.strategy = strategy;
  options.batch_size = static_cast<std::size_t>(batch);
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();

  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
  ASSERT_FALSE(result.best_permutation.empty());
  EXPECT_EQ(fsp::makespan(inst, result.best_permutation), opt.makespan);
  // branched may legitimately be 0: when NEH already found the optimum the
  // root is pruned immediately.
  EXPECT_GE(result.stats.generated, result.stats.branched);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineVsBruteForce,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(SelectionStrategy::kDepthFirst,
                                         SelectionStrategy::kBestFirst),
                       ::testing::Values(1, 16, 64)));

TEST(Engine, PrunesAgainstAPerfectInitialUb) {
  const fsp::Instance inst = random_instance(7, 4, 123);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  options.initial_ub = opt.makespan;  // nothing strictly better exists
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();

  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
  // With UB = optimum, strictly-improving schedules don't exist, so the
  // incumbent permutation may legitimately stay empty.
}

TEST(Engine, TighterUbExploresNoMoreNodes) {
  const fsp::Instance inst = random_instance(8, 4, 9);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  auto run_with_ub = [&](fsp::Time ub) {
    SerialCpuEvaluator eval(inst, data);
    EngineOptions options;
    options.initial_ub = ub;
    BBEngine engine(inst, data, eval, options);
    return engine.solve().stats.branched;
  };
  const auto loose = run_with_ub(opt.makespan + 100);
  const auto tight = run_with_ub(opt.makespan + 1);
  EXPECT_LE(tight, loose);
}

TEST(Engine, NodeBudgetStopsEarly) {
  const fsp::Instance inst = random_instance(10, 5, 77);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  // A deliberately weak incumbent so the engine must branch.
  options.initial_ub = inst.total_work();
  options.node_budget = 5;
  options.collect_pool_on_stop = true;
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_LE(result.stats.branched, 5u);
  EXPECT_FALSE(result.remaining_pool.empty());
  for (const Subproblem& sp : result.remaining_pool) {
    EXPECT_NE(sp.lb, Subproblem::kUnevaluated);
  }
}

TEST(Engine, FreezePoolSizeStop) {
  const fsp::Instance inst = random_instance(10, 5, 78);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  options.initial_ub = inst.total_work();
  options.freeze_pool_size = 30;
  options.collect_pool_on_stop = true;
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_GE(result.remaining_pool.size(), 30u);
}

TEST(Engine, SolveFromFrozenNodesReachesTheOptimum) {
  const fsp::Instance inst = random_instance(8, 4, 55);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  SerialCpuEvaluator eval(inst, data);
  EngineOptions freeze_opts;
  freeze_opts.initial_ub = inst.total_work();
  freeze_opts.freeze_pool_size = 10;
  freeze_opts.collect_pool_on_stop = true;
  BBEngine freezer(inst, data, eval, freeze_opts);
  SolveResult frozen = freezer.solve();
  ASSERT_FALSE(frozen.remaining_pool.empty());

  SerialCpuEvaluator eval2(inst, data);
  BBEngine engine(inst, data, eval2, EngineOptions{});
  const SolveResult result =
      engine.solve_from(std::move(frozen.remaining_pool), frozen.best_makespan);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
}

TEST(Engine, SolveFromRejectsUnevaluatedNodes) {
  const fsp::Instance inst = random_instance(6, 3, 2);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  BBEngine engine(inst, data, eval, EngineOptions{});
  std::vector<Subproblem> nodes;
  nodes.push_back(Subproblem::root(inst.jobs()));  // lb unset
  EXPECT_THROW(engine.solve_from(std::move(nodes), 1000), CheckFailure);
}

TEST(Engine, StatsAreInternallyConsistent) {
  const fsp::Instance inst = random_instance(7, 4, 31);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  BBEngine engine(inst, data, eval, EngineOptions{});
  const SolveResult r = engine.solve();
  // Children either became leaves, got evaluated, or were pruned at pop.
  EXPECT_EQ(r.stats.generated, r.stats.evaluated + r.stats.leaves);
  EXPECT_GE(r.stats.wall_seconds, r.stats.bounding_seconds);
  EXPECT_GT(r.stats.bounding_fraction(), 0.0);
}

TEST(Engine, BatchSizeDoesNotChangeTheOptimum) {
  const fsp::Instance inst = random_instance(9, 4, 13);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{1024}}) {
    SerialCpuEvaluator eval(inst, data);
    EngineOptions options;
    options.batch_size = batch;
    BBEngine engine(inst, data, eval, options);
    const SolveResult result = engine.solve();
    ASSERT_EQ(result.best_makespan, opt.makespan) << "batch " << batch;
    ASSERT_TRUE(result.proven_optimal);
  }
}

class BidirectionalEngineVsBruteForce
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(BidirectionalEngineVsBruteForce, FindsTheOptimum) {
  const auto [seed, strategy, batch] = GetParam();
  const fsp::Instance inst =
      random_instance(8, 3 + seed % 4, static_cast<std::uint64_t>(seed) + 500);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  SerialCpuEvaluator eval(inst, data);
  EngineOptions options;
  options.strategy = strategy;
  options.batch_size = static_cast<std::size_t>(batch);
  options.branching = Branching::kBidirectional;
  options.initial_ub = inst.total_work();  // a real search, not NEH's
  BBEngine engine(inst, data, eval, options);
  const SolveResult result = engine.solve();

  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
  ASSERT_FALSE(result.best_permutation.empty());
  EXPECT_EQ(fsp::makespan(inst, result.best_permutation), opt.makespan);
  // Every branched node with two free jobs or more bounds both ends'
  // children and keeps one end's.
  EXPECT_EQ(result.stats.evaluated,
            2 * (result.stats.generated - result.stats.leaves));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BidirectionalEngineVsBruteForce,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(SelectionStrategy::kDepthFirst,
                                         SelectionStrategy::kBestFirst),
                       ::testing::Values(1, 16)));

TEST(Engine, BidirectionalBranchingNeedsAHostSiblingEvaluator) {
  const fsp::Instance inst = random_instance(6, 3, 8);
  const auto data = fsp::LowerBoundData::build(inst);
  CallbackEvaluator eval("lb1-callback", [&](const Subproblem& sp) {
    return fsp::lb1_from_prefix(inst, data, sp.prefix());
  });
  EngineOptions options;
  options.branching = Branching::kBidirectional;
  BBEngine engine(inst, data, eval, options);
  EXPECT_THROW(engine.solve(), CheckFailure);
}

TEST(Engine, ForwardBranchingRefusesTwoEndedNodes) {
  const fsp::Instance inst = random_instance(6, 3, 9);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  Subproblem node = Subproblem::root(inst.jobs());
  node.depth = 1;
  node.tail = 1;
  node.lb = 1;
  BBEngine engine(inst, data, eval, EngineOptions{});
  EXPECT_THROW(engine.solve_from({node}, inst.total_work()), CheckFailure);
}

}  // namespace
}  // namespace fsbb::core
