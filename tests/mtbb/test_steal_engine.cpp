#include "mtbb/steal_engine.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/protocol.h"
#include "fsp/brute_force.h"
#include "fsp/makespan.h"

namespace fsbb::mtbb {
namespace {

fsp::Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<fsp::Time> pt(static_cast<std::size_t>(jobs),
                       static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<fsp::Time>(rng.next_in(1, 50));
  return fsp::Instance("rand", std::move(pt));
}

using StealCase = std::tuple<int, int>;  // (seed, threads)

class StealEngineVsBruteForce : public ::testing::TestWithParam<StealCase> {};

TEST_P(StealEngineVsBruteForce, FindsTheOptimum) {
  const auto [seed, threads] = GetParam();
  const fsp::Instance inst =
      random_instance(8, 4, static_cast<std::uint64_t>(seed));
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  MtOptions options;
  options.threads = static_cast<std::size_t>(threads);
  const core::SolveResult result = steal_solve(inst, data, options);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
  ASSERT_FALSE(result.best_permutation.empty());
  EXPECT_EQ(fsp::makespan(inst, result.best_permutation), opt.makespan);
  ASSERT_TRUE(result.steal.has_value());
}

INSTANTIATE_TEST_SUITE_P(Sweep, StealEngineVsBruteForce,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1, 2, 4, 8)));

TEST(StealEngine, RepeatedRunsAgreeOnTheOptimum) {
  const fsp::Instance inst = random_instance(9, 5, 7);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 6;
  const auto first = steal_solve(inst, data, options).best_makespan;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(steal_solve(inst, data, options).best_makespan, first);
  }
}

TEST(StealEngine, NodeBudgetStopsEarly) {
  const fsp::Instance inst = random_instance(11, 5, 3);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 4;
  options.node_budget = 20;
  const core::SolveResult result = steal_solve(inst, data, options);
  EXPECT_FALSE(result.proven_optimal);
  // Budget is a stop signal, not a hard cap: in-flight workers finish
  // their node, so allow a small overshoot.
  EXPECT_LE(result.stats.branched, 20u + options.threads);
}

TEST(StealEngine, SolveFromFrozenPoolMatchesSerialOutcome) {
  const fsp::Instance inst = random_instance(9, 4, 17);
  const auto data = fsp::LowerBoundData::build(inst);
  const core::FrozenPool frozen =
      core::freeze_pool(inst, data, 15, inst.total_work());

  core::SerialCpuEvaluator eval(inst, data);
  const core::SolveResult serial = core::explore_frozen(
      inst, data, frozen, eval, core::SelectionStrategy::kBestFirst, 1);

  MtOptions options;
  options.threads = 4;
  const core::SolveResult st =
      steal_solve_from(inst, data, frozen.nodes, frozen.incumbent, options);
  EXPECT_EQ(st.best_makespan, serial.best_makespan);
  EXPECT_TRUE(st.proven_optimal);
}

TEST(StealEngine, InitialUbEqualToOptimumStillTerminates) {
  const fsp::Instance inst = random_instance(7, 4, 21);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);
  MtOptions options;
  options.threads = 3;
  options.initial_ub = opt.makespan;
  const core::SolveResult result = steal_solve(inst, data, options);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
}

TEST(StealEngine, RejectsUnevaluatedInitialNodes) {
  const fsp::Instance inst = random_instance(6, 3, 1);
  const auto data = fsp::LowerBoundData::build(inst);
  std::vector<core::Subproblem> nodes;
  nodes.push_back(core::Subproblem::root(inst.jobs()));
  MtOptions options;
  EXPECT_THROW(steal_solve_from(inst, data, std::move(nodes), 1000, options),
               CheckFailure);
}

TEST(StealEngine, StatsAccumulateAcrossWorkers) {
  const fsp::Instance inst = random_instance(8, 4, 12);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 4;
  options.initial_ub = inst.total_work();  // force real branching
  const core::SolveResult result = steal_solve(inst, data, options);
  EXPECT_GT(result.stats.branched, 0u);
  EXPECT_GE(result.stats.generated, result.stats.branched);
  // LB1 workers branch bidirectionally: both ends' children are bounded,
  // one end's are generated.
  EXPECT_EQ(result.stats.evaluated,
            2 * (result.stats.generated - result.stats.leaves));
}

TEST(StealEngine, BoundingSecondsIsAMeasuredShareOfWall) {
  // The engine times each expansion's bounding loop and reports the
  // per-worker mean: a real share of the solve, not wall time itself.
  const fsp::Instance inst = random_instance(8, 4, 12);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 4;
  options.initial_ub = inst.total_work();  // force real branching
  const core::SolveResult r = steal_solve(inst, data, options);
  EXPECT_GT(r.stats.bounding_seconds, 0.0);
  EXPECT_LT(r.stats.bounding_seconds, r.stats.wall_seconds);
}

TEST(StealEngine, MultiWorkerRunsActuallySteal) {
  // With one root node and several workers, everyone but the starter must
  // acquire its first node by stealing; the merged stats must show it.
  // (The engine's start barrier makes this deterministic enough: thieves
  // exist before the root is branched, and the weak incumbent gives a
  // tree far larger than one worker clears before they probe: about 1,500
  // bidirectional nodes, 25 ms on one worker.)
  const fsp::Instance inst = random_instance(12, 10, 6);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 4;
  options.initial_ub = inst.total_work();  // big tree, plenty to steal
  const core::SolveResult result = steal_solve(inst, data, options);
  ASSERT_TRUE(result.steal.has_value());
  EXPECT_GT(result.steal->steal_attempts, 0u);
  EXPECT_GT(result.steal->nodes_stolen, 0u);
  EXPECT_GE(result.steal->steal_attempts, result.steal->steal_successes);
  EXPECT_GE(result.steal->nodes_stolen, result.steal->steal_successes);
}

TEST(StealEngine, BidirectionalTreeEqualsTheSerialEngineFromTheOptimum) {
  // From the optimum the end choice depends only on the node, so every
  // worker count grows BBEngine's bidirectional tree exactly.
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    const fsp::Instance inst = random_instance(10, 6, seed);
    const auto data = fsp::LowerBoundData::build(inst);
    core::SerialCpuEvaluator eval(inst, data);
    // The forward engine's proven optimum: a reference independent of the
    // branching rule under test.
    const fsp::Time optimum =
        core::BBEngine(inst, data, eval, core::EngineOptions{})
            .solve()
            .best_makespan;
    core::EngineOptions eo;
    eo.initial_ub = optimum;
    eo.branching = core::Branching::kBidirectional;
    const core::SolveResult serial = core::BBEngine(inst, data, eval, eo).solve();
    for (const std::size_t threads : {1, 4}) {
      MtOptions options;
      options.threads = threads;
      options.initial_ub = optimum;
      const core::SolveResult r = steal_solve(inst, data, options);
      EXPECT_TRUE(r.proven_optimal) << "seed " << seed;
      EXPECT_EQ(r.stats.branched, serial.stats.branched) << "seed " << seed;
      EXPECT_EQ(r.stats.evaluated, serial.stats.evaluated) << "seed " << seed;
      EXPECT_EQ(r.stats.pruned, serial.stats.pruned) << "seed " << seed;
    }
  }
}

TEST(StealEngine, BidirectionalSolveFromTwoEndedNodesFindsTheOptimum) {
  // A checkpoint of a bidirectional search holds two-ended nodes; resuming
  // it must still prove the optimum, and forward (LB2) branching refuses
  // it.
  const fsp::Instance inst = random_instance(9, 4, 41);
  const auto data = fsp::LowerBoundData::build(inst);
  core::SerialCpuEvaluator eval(inst, data);
  // From NEH (not a weak incumbent, under which no end prunes a child and
  // the head is kept), the first expansions already branch some tails.
  core::EngineOptions eo;
  eo.branching = core::Branching::kBidirectional;
  eo.node_budget = 6;
  eo.collect_pool_on_stop = true;
  const core::SolveResult partial =
      core::BBEngine(inst, data, eval, eo).solve();
  ASSERT_FALSE(partial.remaining_pool.empty());
  bool two_ended = false;
  for (const core::Subproblem& sp : partial.remaining_pool) {
    two_ended = two_ended || sp.tail > 0;
  }
  ASSERT_TRUE(two_ended) << "the budget no longer reaches a tail branch";

  MtOptions options;
  options.threads = 3;
  const core::SolveResult r = steal_solve_from(
      inst, data, partial.remaining_pool, partial.best_makespan, options);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(std::min(r.best_makespan, partial.best_makespan),
            fsp::brute_force(inst).makespan);

  options.bound = MtBound::kLb2;
  EXPECT_THROW(steal_solve_from(inst, data, partial.remaining_pool,
                                partial.best_makespan, options),
               CheckFailure);
}

TEST(StealEngine, SingleThreadStealsNothing) {
  const fsp::Instance inst = random_instance(8, 4, 9);
  const auto data = fsp::LowerBoundData::build(inst);
  MtOptions options;
  options.threads = 1;
  const core::SolveResult result = steal_solve(inst, data, options);
  EXPECT_TRUE(result.proven_optimal);
  ASSERT_TRUE(result.steal.has_value());
  EXPECT_EQ(result.steal->steal_attempts, 0u);
  EXPECT_EQ(result.steal->nodes_stolen, 0u);
}

}  // namespace
}  // namespace fsbb::mtbb
