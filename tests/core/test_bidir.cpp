// Bidirectional branching: the two-sided bound (fsp::Lb1BidirContext) and
// BBEngine's bidirectional mode. The bound's exactness against a freshly
// built mirrored table lives in tests/fsp/test_lb1.cpp; the cross-engine
// tree identity in the differential-fuzz suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>

#include "common/rng.h"
#include "core/engine.h"
#include "fsp/brute_force.h"
#include "fsp/generators.h"
#include "fsp/lb1.h"
#include "fsp/makespan.h"

namespace fsbb::core {
namespace {

fsp::Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  return fsp::make_instance(fsp::InstanceFamily::kUniform, jobs, machines,
                            seed);
}

// Best makespan over every ordering of the free middle jobs.
fsp::Time best_middle_completion(const fsp::Instance& inst,
                                 const Subproblem& node) {
  std::vector<fsp::JobId> perm = node.perm;
  const auto mid_begin = perm.begin() + node.depth;
  const auto mid_end = perm.end() - node.tail;
  std::sort(mid_begin, mid_end);
  fsp::Time best = std::numeric_limits<fsp::Time>::max();
  do {
    best = std::min(best, fsp::makespan(inst, perm));
  } while (std::next_permutation(mid_begin, mid_end));
  return best;
}

// Builds a random node with the given head/tail sizes.
Subproblem random_node(const fsp::Instance& inst, int head, int tail,
                       SplitMix64& rng) {
  Subproblem node = Subproblem::root(inst.jobs());
  shuffle(node.perm, rng);
  node.depth = head;
  node.tail = tail;
  return node;
}

// The two-sided bound of a node with at least one fixed job, as its
// parent's context computes it: the child that fixed the node's last head
// job (with an empty head, its first tail job).
fsp::Time two_sided_bound(fsp::Lb1BidirContext& ctx, const Subproblem& node) {
  const std::span<const fsp::JobId> head = node.prefix();
  const std::span<const fsp::JobId> tail = node.suffix();
  if (!head.empty()) {
    ctx.set_parent(head.first(head.size() - 1), tail);
    return ctx.bound_head_child(head.back());
  }
  ctx.set_parent(head, tail.subspan(1));
  return ctx.bound_tail_child(tail.front());
}

SolveResult solve(const fsp::Instance& inst, const fsp::LowerBoundData& data,
                  Branching branching, EngineOptions options = {}) {
  SerialCpuEvaluator eval(inst, data);
  options.branching = branching;
  BBEngine engine(inst, data, eval, options);
  return engine.solve();
}

class BidirBound : public ::testing::TestWithParam<int> {};

TEST_P(BidirBound, NeverExceedsTheBestCompletion) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  SplitMix64 rng(seed * 29 + 3);
  const fsp::Instance inst = random_instance(8, 3 + GetParam() % 4, seed);
  const auto data = fsp::LowerBoundData::build(inst);
  fsp::Lb1BidirContext ctx(inst, data);
  for (int head = 0; head <= 3; ++head) {
    for (int tail = 0; tail <= 3; ++tail) {
      const Subproblem node = random_node(inst, head, tail, rng);
      if (node.fixed() > 0) {
        ASSERT_LE(two_sided_bound(ctx, node),
                  best_middle_completion(inst, node))
            << "head " << head << " tail " << tail;
      }
      // The children of both ends are bounded as validly.
      ctx.set_parent(node.prefix(), node.suffix());
      for (int i = 0; i < node.remaining(); ++i) {
        const fsp::JobId job = node.free_jobs()[static_cast<std::size_t>(i)];
        Subproblem child = node;
        write_child_perm(node.perm, static_cast<std::size_t>(head),
                         static_cast<std::size_t>(i), child.perm);
        ++child.depth;
        ASSERT_LE(ctx.bound_head_child(job), best_middle_completion(inst, child))
            << "head child " << i;
        child = node;
        write_tail_child_perm(node.perm, static_cast<std::size_t>(head),
                              static_cast<std::size_t>(tail),
                              static_cast<std::size_t>(i), child.perm);
        ++child.tail;
        ASSERT_LE(ctx.bound_tail_child(job), best_middle_completion(inst, child))
            << "tail child " << i;
      }
    }
  }
}

TEST_P(BidirBound, SuffixInformationNeverWeakensTheBound) {
  // Fixing the last two free jobs as a suffix can only raise the bound of
  // the same arrangement.
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 13 + 1;
  SplitMix64 rng(seed);
  const fsp::Instance inst = random_instance(9, 5, seed);
  const auto data = fsp::LowerBoundData::build(inst);
  fsp::Lb1BidirContext ctx(inst, data);
  Subproblem node = random_node(inst, 2, 0, rng);
  const fsp::Time without_suffix = two_sided_bound(ctx, node);
  node.tail = 2;
  const fsp::Time with_suffix = two_sided_bound(ctx, node);
  EXPECT_GE(with_suffix, without_suffix);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidirBound, ::testing::Range(0, 12));

class BidirSolve : public ::testing::TestWithParam<int> {};

TEST_P(BidirSolve, MatchesBruteForceAndForwardEngine) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const fsp::Instance inst = random_instance(8, 4 + GetParam() % 3, seed);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);

  const SolveResult bidir = solve(inst, data, Branching::kBidirectional);
  EXPECT_TRUE(bidir.proven_optimal);
  EXPECT_EQ(bidir.best_makespan, opt.makespan);
  ASSERT_FALSE(bidir.best_permutation.empty());
  EXPECT_EQ(fsp::makespan(inst, bidir.best_permutation), opt.makespan);
  EXPECT_EQ(solve(inst, data, Branching::kForward).best_makespan,
            bidir.best_makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidirSolve, ::testing::Range(0, 10));

TEST(Bidir, RootNodeShape) {
  const Subproblem root = Subproblem::root(6);
  EXPECT_EQ(root.jobs(), 6);
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(root.tail, 0);
  EXPECT_EQ(root.fixed(), 0);
  EXPECT_EQ(root.remaining(), 6);
  EXPECT_TRUE(root.suffix().empty());
  EXPECT_FALSE(root.is_complete());
  // NodeRef's packed field round-trips both ends; forward nodes pack to
  // their plain depth.
  const NodeRef ref{0, pack_ends(5, 7), 0};
  EXPECT_EQ(ref.head(), 5);
  EXPECT_EQ(ref.tail(), 7);
  EXPECT_EQ(ref.fixed(), 12);
  EXPECT_EQ(pack_ends(9, 0), 9);
  EXPECT_EQ(packed_tail(pack_ends(32767, 32767)), 32767);
}

TEST(Bidir, CompleteNodeBoundIsTheExactMakespan) {
  SplitMix64 rng(9);
  const fsp::Instance inst = random_instance(7, 4, 5);
  const auto data = fsp::LowerBoundData::build(inst);
  fsp::Lb1BidirContext ctx(inst, data);
  for (int head = 0; head <= inst.jobs(); ++head) {
    const Subproblem node = random_node(inst, head, inst.jobs() - head, rng);
    ASSERT_TRUE(node.is_complete());
    EXPECT_EQ(two_sided_bound(ctx, node), fsp::makespan(inst, node.perm))
        << "head " << head;
  }
}

TEST(Bidir, TreeSizeComparableToForwardInAggregate) {
  // On small uniform instances the end choice must not blow the tree up
  // against forward branching: the aggregate stays within 25%.
  std::uint64_t forward_total = 0;
  std::uint64_t bidir_total = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const fsp::Instance inst = random_instance(9, 6, seed + 100);
    const auto data = fsp::LowerBoundData::build(inst);
    EngineOptions options;
    options.initial_ub = inst.total_work();
    forward_total +=
        solve(inst, data, Branching::kForward, options).stats.branched;
    bidir_total +=
        solve(inst, data, Branching::kBidirectional, options).stats.branched;
  }
  EXPECT_LT(static_cast<double>(bidir_total),
            1.25 * static_cast<double>(forward_total));
}

TEST(Bidir, JobCorrelatedTreeNoLargerThanForward) {
  // Job-correlated inputs are where ranking the ends by their bound sums
  // alone grew the tree several-fold. From NEH and from a weak incumbent
  // alike, the bidirectional tree stays within forward's in aggregate.
  for (const bool from_neh : {true, false}) {
    std::uint64_t forward_total = 0;
    std::uint64_t bidir_total = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const fsp::Instance inst = fsp::make_instance(
          fsp::InstanceFamily::kJobCorrelated, 11, 8, seed);
      const auto data = fsp::LowerBoundData::build(inst);
      EngineOptions options;
      if (!from_neh) options.initial_ub = inst.total_work();
      forward_total +=
          solve(inst, data, Branching::kForward, options).stats.branched;
      bidir_total +=
          solve(inst, data, Branching::kBidirectional, options).stats.branched;
    }
    EXPECT_LE(bidir_total, forward_total) << "from NEH: " << from_neh;
  }
}

TEST(Bidir, NodeBudgetStopsEarly) {
  const fsp::Instance inst = random_instance(12, 8, 3);
  const auto data = fsp::LowerBoundData::build(inst);
  EngineOptions options;
  options.initial_ub = inst.total_work();
  options.node_budget = 10;
  const SolveResult result =
      solve(inst, data, Branching::kBidirectional, options);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_EQ(result.stop_reason, StopReason::kBudget);
  EXPECT_LE(result.stats.branched, 10u);
}

}  // namespace
}  // namespace fsbb::core
