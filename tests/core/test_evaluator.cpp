#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fsp/taillard.h"

namespace fsbb::core {
namespace {

std::vector<Subproblem> random_batch(const fsp::Instance& inst, int count,
                                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Subproblem> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Subproblem sp = Subproblem::root(inst.jobs());
    shuffle(sp.perm, rng);
    sp.depth = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(inst.jobs())));
    batch.push_back(std::move(sp));
  }
  return batch;
}

TEST(SerialCpuEvaluator, FillsEveryBound) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);

  auto batch = random_batch(inst, 64, 1);
  eval.evaluate(batch);
  for (const Subproblem& sp : batch) {
    EXPECT_NE(sp.lb, Subproblem::kUnevaluated);
    EXPECT_GT(sp.lb, 0);
  }
  EXPECT_EQ(eval.ledger().batches, 1u);
  EXPECT_EQ(eval.ledger().nodes, 64u);
}

class ThreadedMatchesSerial : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedMatchesSerial, IdenticalBoundsForAnyThreadCount) {
  const fsp::Instance inst = fsp::taillard_instance(21);  // 20x20
  const auto data = fsp::LowerBoundData::build(inst);

  auto serial_batch = random_batch(inst, 100, 42);
  auto threaded_batch = serial_batch;  // copy

  SerialCpuEvaluator serial(inst, data);
  ThreadedCpuEvaluator threaded(inst, data,
                                static_cast<std::size_t>(GetParam()));
  serial.evaluate(serial_batch);
  threaded.evaluate(threaded_batch);

  for (std::size_t i = 0; i < serial_batch.size(); ++i) {
    ASSERT_EQ(serial_batch[i].lb, threaded_batch[i].lb) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedMatchesSerial,
                         ::testing::Values(1, 2, 3, 8));

TEST(ThreadedCpuEvaluator, NameIsStableAcrossThreadCounts) {
  // Reports and golden tests must not vary with detected hardware
  // concurrency, so the name excludes the pool size.
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  ThreadedCpuEvaluator three(inst, data, 3);
  ThreadedCpuEvaluator detected(inst, data, 0);
  EXPECT_EQ(three.name(), "cpu-threads");
  EXPECT_EQ(three.name(), detected.name());
  EXPECT_EQ(three.threads(), 3u);
}

TEST(Evaluators, EmptyBatchIsHarmless) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator serial(inst, data);
  ThreadedCpuEvaluator threaded(inst, data, 2);
  std::vector<Subproblem> empty;
  EXPECT_NO_THROW(serial.evaluate(empty));
  EXPECT_NO_THROW(threaded.evaluate(empty));
}

// ---- the sibling-batch seam ---------------------------------------------

/// Builds the SiblingBatch view of one parent plus the materialized
/// children (via Subproblem::child) for the reference bounds.
struct SiblingCase {
  Subproblem parent;
  std::vector<Subproblem> children;
  std::vector<fsp::Time> bounds;

  explicit SiblingCase(Subproblem p) : parent(std::move(p)) {
    for (int i = 0; i < parent.remaining(); ++i) {
      children.push_back(parent.child(i));
    }
    bounds.assign(children.size(), Subproblem::kUnevaluated);
  }

  SiblingBatch batch() {
    return SiblingBatch{parent.prefix(), parent.free_jobs(), bounds};
  }
};

std::vector<SiblingCase> random_sibling_cases(const fsp::Instance& inst,
                                              int count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<SiblingCase> cases;
  for (int i = 0; i < count; ++i) {
    Subproblem sp = Subproblem::root(inst.jobs());
    shuffle(sp.perm, rng);
    // remaining >= 2: engines never hand complete children to the seam.
    sp.depth = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(inst.jobs() - 1)));
    cases.emplace_back(std::move(sp));
  }
  return cases;
}

TEST(SiblingSeam, SerialIncrementalMatchesFlatReplay) {
  const fsp::Instance inst = fsp::taillard_instance(21);  // 20x20
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  ASSERT_TRUE(eval.supports_sibling_batches());

  auto cases = random_sibling_cases(inst, 16, 11);
  std::vector<SiblingBatch> groups;
  for (auto& c : cases) groups.push_back(c.batch());
  eval.evaluate_siblings(groups);

  for (auto& c : cases) {
    eval.evaluate(c.children);  // the replay path
    for (std::size_t i = 0; i < c.children.size(); ++i) {
      ASSERT_EQ(c.bounds[i], c.children[i].lb)
          << "parent depth " << c.parent.depth << " child " << i;
    }
  }
}

TEST(SiblingSeam, DefaultFallbackMatchesPerChildCallback) {
  // CallbackEvaluator does not override the seam: the base-class default
  // must materialize children exactly as Subproblem::child() would.
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  CallbackEvaluator eval("lb1-callback", [&](const Subproblem& sp) {
    return fsp::lb1_from_prefix(inst, data, sp.prefix());
  });
  ASSERT_FALSE(eval.supports_sibling_batches());

  auto cases = random_sibling_cases(inst, 8, 29);
  std::vector<SiblingBatch> groups;
  for (auto& c : cases) groups.push_back(c.batch());
  eval.evaluate_siblings(groups);

  for (auto& c : cases) {
    for (std::size_t i = 0; i < c.children.size(); ++i) {
      const fsp::Time expected =
          fsp::lb1_from_prefix(inst, data, c.children[i].prefix());
      ASSERT_EQ(c.bounds[i], expected);
    }
  }
}

class ThreadedSiblingsMatchSerial : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedSiblingsMatchSerial, IdenticalBoundsForAnyThreadCount) {
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator serial(inst, data);
  ThreadedCpuEvaluator threaded(inst, data,
                                static_cast<std::size_t>(GetParam()));
  ASSERT_TRUE(threaded.supports_sibling_batches());

  auto serial_cases = random_sibling_cases(inst, 24, 1234);
  auto threaded_cases = random_sibling_cases(inst, 24, 1234);
  std::vector<SiblingBatch> serial_groups, threaded_groups;
  for (auto& c : serial_cases) serial_groups.push_back(c.batch());
  for (auto& c : threaded_cases) threaded_groups.push_back(c.batch());
  serial.evaluate_siblings(serial_groups);
  threaded.evaluate_siblings(threaded_groups);

  for (std::size_t g = 0; g < serial_cases.size(); ++g) {
    ASSERT_EQ(serial_cases[g].bounds, threaded_cases[g].bounds)
        << "group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedSiblingsMatchSerial,
                         ::testing::Values(1, 2, 3, 8));

TEST(SiblingSeam, BidirectionalBatchesMatchTheTwoSidedContext) {
  // A bidirectional batch returns the head children's bounds, then the
  // tail children's, exactly as Lb1BidirContext computes them — on the
  // serial evaluator and on every thread count of the threaded one.
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  SplitMix64 rng(77);
  std::vector<Subproblem> parents;
  for (int i = 0; i < 16; ++i) {
    Subproblem sp = Subproblem::root(inst.jobs());
    shuffle(sp.perm, rng);
    sp.depth = static_cast<std::int32_t>(rng.next_below(8));
    sp.tail = static_cast<std::int32_t>(rng.next_below(8));
    parents.push_back(std::move(sp));
  }
  const auto run = [&](BoundEvaluator& eval) {
    std::vector<std::vector<fsp::Time>> bounds;
    for (const Subproblem& p : parents) {
      bounds.emplace_back(2 * static_cast<std::size_t>(p.remaining()));
    }
    std::vector<SiblingBatch> groups;
    for (std::size_t g = 0; g < parents.size(); ++g) {
      groups.push_back(SiblingBatch{parents[g].prefix(),
                                    parents[g].free_jobs(), bounds[g],
                                    parents[g].suffix(),
                                    Branching::kBidirectional});
    }
    eval.evaluate_siblings(groups);
    return bounds;
  };

  fsp::Lb1BidirContext ctx(inst, data);
  std::vector<std::vector<fsp::Time>> expected;
  for (const Subproblem& p : parents) {
    ctx.set_parent(p.prefix(), p.suffix());
    std::vector<fsp::Time> b;
    for (const JobId job : p.free_jobs()) b.push_back(ctx.bound_head_child(job));
    for (const JobId job : p.free_jobs()) b.push_back(ctx.bound_tail_child(job));
    expected.push_back(std::move(b));
  }
  SerialCpuEvaluator serial(inst, data);
  EXPECT_EQ(run(serial), expected);
  for (const std::size_t threads : {1, 3}) {
    ThreadedCpuEvaluator threaded(inst, data, threads);
    EXPECT_EQ(run(threaded), expected) << threads << " threads";
  }
}

TEST(SiblingSeam, ForwardOnlyEvaluatorsRefuseBidirectionalBatches) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  CallbackEvaluator callback("lb1-callback", [&](const Subproblem& sp) {
    return fsp::lb1_from_prefix(inst, data, sp.prefix());
  });
  SerialCpuEvaluator lb2(inst, data, fsp::Lb2Data::build(inst));
  const Subproblem root = Subproblem::root(inst.jobs());
  std::vector<fsp::Time> bounds(2 * static_cast<std::size_t>(inst.jobs()));
  const SiblingBatch group{root.prefix(), root.free_jobs(), bounds,
                           root.suffix(), Branching::kBidirectional};
  EXPECT_THROW(callback.evaluate_siblings({&group, 1}), CheckFailure);
  EXPECT_THROW(lb2.evaluate_siblings({&group, 1}), CheckFailure);
}

TEST(SiblingSeam, LedgerCountsSiblingNodes) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  auto cases = random_sibling_cases(inst, 3, 5);
  std::vector<SiblingBatch> groups;
  std::size_t nodes = 0;
  for (auto& c : cases) {
    groups.push_back(c.batch());
    nodes += c.children.size();
  }
  eval.evaluate_siblings(groups);
  EXPECT_EQ(eval.ledger().batches, 1u);
  EXPECT_EQ(eval.ledger().nodes, nodes);
}

TEST(Evaluators, RepeatedEvaluationIsIdempotent) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  SerialCpuEvaluator eval(inst, data);
  auto batch = random_batch(inst, 10, 7);
  eval.evaluate(batch);
  std::vector<fsp::Time> first;
  for (const auto& sp : batch) first.push_back(sp.lb);
  eval.evaluate(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].lb, first[i]);
  }
}

}  // namespace
}  // namespace fsbb::core
