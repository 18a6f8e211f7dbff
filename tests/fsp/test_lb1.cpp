#include "fsp/lb1.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fsp/brute_force.h"
#include "fsp/makespan.h"
#include "fsp/taillard.h"

namespace fsbb::fsp {
namespace {

Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<Time> pt(static_cast<std::size_t>(jobs),
                  static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<Time>(rng.next_in(1, 50));
  return Instance("rand", std::move(pt));
}

class Lb1Random : public ::testing::TestWithParam<int> {};

TEST_P(Lb1Random, RootBoundNeverExceedsOptimum) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = random_instance(7, 2 + GetParam() % 5, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  const Time lb = lb1_from_prefix(inst, data, {});
  const BruteForceResult opt = brute_force(inst);
  EXPECT_LE(lb, opt.makespan) << inst.name();
  EXPECT_GT(lb, 0);
}

TEST_P(Lb1Random, PrefixBoundNeverExceedsBestCompletion) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 31 + 5;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(7, 3 + GetParam() % 4, seed);
  const LowerBoundData data = LowerBoundData::build(inst);

  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  for (int depth = 0; depth <= inst.jobs(); ++depth) {
    const std::span<const JobId> prefix(perm.data(),
                                        static_cast<std::size_t>(depth));
    const Time lb = lb1_from_prefix(inst, data, prefix);
    const BruteForceResult best = brute_force_completion(inst, prefix);
    ASSERT_LE(lb, best.makespan) << "depth " << depth;
  }
}

TEST_P(Lb1Random, CompleteScheduleBoundEqualsMakespan) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 17 + 3;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(8, 4, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  EXPECT_EQ(lb1_from_prefix(inst, data, perm), makespan(inst, perm));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lb1Random, ::testing::Range(0, 25));

TEST(Lb1, TwoMachineRootBoundIsExact) {
  // For m = 2 the relaxation is the original problem: the root LB equals
  // the Johnson optimum.
  const Instance inst = random_instance(8, 2, 99);
  const LowerBoundData data = LowerBoundData::build(inst);
  const Time lb = lb1_from_prefix(inst, data, {});
  EXPECT_EQ(lb, brute_force(inst).makespan);
}

TEST(Lb1, RootBoundOnKnownTinyInstance) {
  // 2 jobs x 2 machines, hand-checkable: optimum is 7 (order 1,0).
  Matrix<Time> pt(2, 2);
  pt(0, 0) = 3;
  pt(0, 1) = 2;
  pt(1, 0) = 1;
  pt(1, 1) = 4;
  const Instance inst("tiny", std::move(pt));
  const LowerBoundData data = LowerBoundData::build(inst);
  EXPECT_EQ(lb1_from_prefix(inst, data, {}), 7);
}

TEST(Lb1, StateAndPrefixEntrypointsAgree) {
  const Instance inst = taillard_instance(1);
  const LowerBoundData data = LowerBoundData::build(inst);
  SplitMix64 rng(4);
  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  const std::span<const JobId> prefix(perm.data(), 6);

  std::vector<Time> fronts(static_cast<std::size_t>(inst.machines()));
  std::vector<std::uint8_t> scheduled(static_cast<std::size_t>(inst.jobs()), 0);
  compute_fronts(inst, prefix, fronts);
  for (const JobId j : prefix) scheduled[static_cast<std::size_t>(j)] = 1;

  EXPECT_EQ(lb1_from_state(data, fronts, scheduled),
            lb1_from_prefix(inst, data, prefix));
}

TEST(Lb1, BoundGrowsAlongABranch) {
  // Not a theorem for arbitrary bounds, but LB1 with machine fronts is
  // monotone in practice along any chain of our branching; lock the
  // behaviour on a real instance so regressions surface.
  const Instance inst = taillard_instance(21);
  const LowerBoundData data = LowerBoundData::build(inst);
  SplitMix64 rng(11);
  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  Time prev = 0;
  for (int depth = 0; depth + 1 < inst.jobs(); ++depth) {
    const Time lb = lb1_from_prefix(
        inst, data, std::span<const JobId>(perm.data(),
                                           static_cast<std::size_t>(depth)));
    ASSERT_GE(lb, prev) << "depth " << depth;
    prev = lb;
  }
}

// ---- the incremental sibling-batch context ------------------------------

class Lb1ContextRandom : public ::testing::TestWithParam<int> {};

TEST_P(Lb1ContextRandom, IncrementalFrontsMatchComputeFronts) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 101 + 7;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(9, 2 + GetParam() % 6, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BoundContext ctx(inst, data);

  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  for (int depth = 0; depth <= inst.jobs(); ++depth) {
    const std::span<const JobId> prefix(perm.data(),
                                        static_cast<std::size_t>(depth));
    ctx.set_parent(prefix);
    std::vector<Time> expected(static_cast<std::size_t>(inst.machines()));
    compute_fronts(inst, prefix, expected);
    ASSERT_EQ(ctx.free_count(), inst.jobs() - depth) << "depth " << depth;
    for (int k = 0; k < inst.machines(); ++k) {
      ASSERT_EQ(ctx.parent_fronts()[static_cast<std::size_t>(k)],
                expected[static_cast<std::size_t>(k)])
          << "depth " << depth << " machine " << k;
    }
    for (int j = 0; j < inst.jobs(); ++j) {
      const bool in_prefix =
          std::find(prefix.begin(), prefix.end(), static_cast<JobId>(j)) !=
          prefix.end();
      ASSERT_EQ(ctx.scheduled()[static_cast<std::size_t>(j)] != 0, in_prefix)
          << "depth " << depth << " job " << j;
    }
  }
}

TEST_P(Lb1ContextRandom, BoundChildIsBitIdenticalToPrefixReplay) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 53 + 1;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(8, 2 + GetParam() % 7, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BoundContext ctx(inst, data);

  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  // Every depth, every sibling: the incremental bound must equal the
  // full O(depth m + m^2 n) replay of the child's prefix.
  std::vector<JobId> child_prefix;
  for (int depth = 0; depth < inst.jobs(); ++depth) {
    const std::span<const JobId> prefix(perm.data(),
                                        static_cast<std::size_t>(depth));
    ctx.set_parent(prefix);
    for (int i = depth; i < inst.jobs(); ++i) {
      const JobId job = perm[static_cast<std::size_t>(i)];
      child_prefix.assign(prefix.begin(), prefix.end());
      child_prefix.push_back(job);
      ASSERT_EQ(ctx.bound_child(job),
                lb1_from_prefix(inst, data, child_prefix))
          << "depth " << depth << " job " << job;
    }
  }
}

TEST_P(Lb1ContextRandom, VectorizedSweepMatchesScalarReference) {
  // The branchless position-outer sweep against the scalar couple-outer
  // oracle it replaced: bit-identical for every depth and every sibling.
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 67 + 29;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(9, 2 + GetParam() % 7, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BoundContext ctx(inst, data);

  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  for (int depth = 0; depth < inst.jobs(); ++depth) {
    const std::span<const JobId> prefix(perm.data(),
                                        static_cast<std::size_t>(depth));
    ctx.set_parent(prefix);
    for (int i = depth; i < inst.jobs(); ++i) {
      const JobId job = perm[static_cast<std::size_t>(i)];
      ASSERT_EQ(ctx.bound_child(job), ctx.bound_child_reference(job))
          << "depth " << depth << " job " << job;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lb1ContextRandom, ::testing::Range(0, 20));

TEST(Lb1BoundContext, RebindingParentsIsClean) {
  // One context across many parents (the evaluator usage pattern): no
  // state may leak between set_parent calls.
  const Instance inst = taillard_instance(1);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BoundContext ctx(inst, data);
  SplitMix64 rng(77);
  auto perm = identity_permutation(inst.jobs());

  for (int round = 0; round < 10; ++round) {
    shuffle(perm, rng);
    const auto depth = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(inst.jobs())));
    const std::span<const JobId> prefix(perm.data(), depth);
    ctx.set_parent(prefix);
    const JobId job = perm[depth];
    std::vector<JobId> child_prefix(prefix.begin(), prefix.end());
    child_prefix.push_back(job);
    ASSERT_EQ(ctx.bound_child(job), lb1_from_prefix(inst, data, child_prefix))
        << "round " << round;
  }
}

TEST(Lb1BoundContext, CompleteChildBoundEqualsMakespan) {
  // Binding the parent at depth n-1 and scheduling the last job must give
  // the exact makespan, like lb1_evaluate on a full schedule.
  const Instance inst = random_instance(8, 5, 123);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BoundContext ctx(inst, data);
  SplitMix64 rng(5);
  auto perm = identity_permutation(inst.jobs());
  shuffle(perm, rng);
  const std::span<const JobId> prefix(perm.data(), perm.size() - 1);
  ctx.set_parent(prefix);
  EXPECT_EQ(ctx.bound_child(perm.back()), makespan(inst, perm));
}

TEST(Lb1, ScratchReuseIsClean) {
  const Instance inst = taillard_instance(1);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1Scratch scratch(inst.jobs(), inst.machines());
  const std::vector<JobId> p1{0, 1, 2};
  const std::vector<JobId> p2{5, 6};
  const Time a1 = lb1_from_prefix(inst, data, p1, scratch);
  const Time a2 = lb1_from_prefix(inst, data, p2, scratch);
  // Recompute with fresh scratch: identical results.
  EXPECT_EQ(a1, lb1_from_prefix(inst, data, p1));
  EXPECT_EQ(a2, lb1_from_prefix(inst, data, p2));
}

// ---- Lb1BidirContext: the two-sided bound of bidirectional branching ----

Instance random_instance_in(int jobs, int machines, std::uint64_t seed,
                            int max_pt) {
  SplitMix64 rng(seed);
  Matrix<Time> pt(static_cast<std::size_t>(jobs),
                  static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<Time>(rng.next_in(1, max_pt));
  return Instance("rand", std::move(pt));
}

Instance mirrored(const Instance& inst) {
  Matrix<Time> pt(static_cast<std::size_t>(inst.jobs()),
                  static_cast<std::size_t>(inst.machines()));
  for (int j = 0; j < inst.jobs(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) {
      pt(static_cast<std::size_t>(j), static_cast<std::size_t>(k)) =
          inst.pt(j, inst.machines() - 1 - k);
    }
  }
  return Instance(inst.name() + "-mirror", std::move(pt));
}

/// LB1's provider with each couple finished by max(QM[l], backs[l]).
class BacksProvider {
 public:
  BacksProvider(const LowerBoundData& d, std::span<const Time> backs)
      : d_(&d), backs_(backs) {}
  int jobs() const { return d_->jobs(); }
  int machines() const { return d_->machines(); }
  int pairs() const { return d_->pairs(); }
  JobId jm(int pair, int pos) const { return d_->jm(pair, pos); }
  Time lm(int job, int pair) const { return d_->lm(job, pair); }
  Time ptm(int job, int machine) const { return d_->ptm(job, machine); }
  Time rm(int machine) const { return d_->rm(machine); }
  Time qm(int machine) const {
    return std::max(d_->qm(machine), backs_[static_cast<std::size_t>(machine)]);
  }
  int mm_k(int pair) const { return d_->mm(pair).k; }
  int mm_l(int pair) const { return d_->mm(pair).l; }

 private:
  const LowerBoundData* d_;
  std::span<const Time> backs_;
};

/// One view of the two-sided bound, replayed from scratch: the head's
/// fronts start the sweep, the tail's backs (fronts of the mirrored tail,
/// re-indexed) finish it.
Time one_view(const Instance& inst, const LowerBoundData& data,
              std::span<const JobId> perm, int head, int tail) {
  const int m = inst.machines();
  const int n = inst.jobs();
  std::vector<Time> fronts(static_cast<std::size_t>(m));
  compute_fronts(inst, perm.first(static_cast<std::size_t>(head)), fronts);
  const Instance mirror = mirrored(inst);
  std::vector<JobId> tail_rev(perm.rbegin(), perm.rbegin() + tail);
  std::vector<Time> rev(static_cast<std::size_t>(m));
  compute_fronts(mirror, tail_rev, rev);
  std::vector<Time> backs(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    backs[static_cast<std::size_t>(k)] = rev[static_cast<std::size_t>(m - 1 - k)];
  }
  std::vector<std::uint8_t> scheduled(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    if (i < head || i >= n - tail) {
      scheduled[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = 1;
    }
  }
  return lb1_evaluate(BacksProvider(data, backs), fronts, scheduled);
}

/// The reference two-sided bound: the forward view on the instance, the
/// reversed view on a freshly built mirrored instance and table.
Time reference_bound(const Instance& inst, const LowerBoundData& data,
                     const Instance& mirror, const LowerBoundData& mirror_data,
                     std::span<const JobId> perm, int head, int tail) {
  const std::vector<JobId> rperm(perm.rbegin(), perm.rend());
  return std::max(one_view(inst, data, perm, head, tail),
                  one_view(mirror, mirror_data, rperm, tail, head));
}

std::vector<JobId> shuffled_jobs(int jobs, SplitMix64& rng) {
  std::vector<JobId> perm(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) perm[static_cast<std::size_t>(j)] = static_cast<JobId>(j);
  shuffle(perm, rng);
  return perm;
}

class Lb1BidirRandom : public ::testing::TestWithParam<int> {};

TEST_P(Lb1BidirRandom, MatchesAFreshlyBuiltMirroredTable) {
  // Small processing times force ties in the Johnson orders: the reversed
  // forward order and the mirrored table's own order may break them
  // differently, and the bounds must still agree exactly.
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 7 + 11;
  SplitMix64 rng(seed);
  const int max_pt = GetParam() % 2 == 0 ? 4 : 60;
  const Instance inst =
      random_instance_in(9, 2 + GetParam() % 6, seed, max_pt);
  const LowerBoundData data = LowerBoundData::build(inst);
  const Instance mirror = mirrored(inst);
  const LowerBoundData mirror_data = LowerBoundData::build(mirror);
  Lb1BidirContext ctx(inst, data);
  for (int head = 0; head <= 4; ++head) {
    for (int tail = 0; tail + head <= 8; ++tail) {
      const std::vector<JobId> perm = shuffled_jobs(inst.jobs(), rng);
      const std::span<const JobId> p(perm);
      ctx.set_parent(p.first(static_cast<std::size_t>(head)),
                     p.last(static_cast<std::size_t>(tail)));
      const int free = inst.jobs() - head - tail;
      for (int i = 0; i < free; ++i) {
        const JobId job = perm[static_cast<std::size_t>(head + i)];
        // Head child i moves free job i to the front of the free block,
        // tail child i to its back.
        std::vector<JobId> child = perm;
        std::swap(child[static_cast<std::size_t>(head)],
                  child[static_cast<std::size_t>(head + i)]);
        ASSERT_EQ(ctx.bound_head_child(job),
                  reference_bound(inst, data, mirror, mirror_data, child,
                                  head + 1, tail))
            << "head child " << i << " of head " << head << " tail " << tail;
        child = perm;
        std::swap(child[static_cast<std::size_t>(head + i)],
                  child[perm.size() - 1 - static_cast<std::size_t>(tail)]);
        ASSERT_EQ(ctx.bound_tail_child(job),
                  reference_bound(inst, data, mirror, mirror_data, child, head,
                                  tail + 1))
            << "tail child " << i << " of head " << head << " tail " << tail;
      }
    }
  }
}

TEST_P(Lb1BidirRandom, ForwardViewDominatesLb1OnHeadOnlyNodes) {
  // With an empty tail the forward view IS LB1; the reversed view can
  // only raise the bound.
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 13 + 1;
  SplitMix64 rng(seed);
  const Instance inst = random_instance(9, 5, seed);
  const LowerBoundData data = LowerBoundData::build(inst);
  Lb1BidirContext ctx(inst, data);
  for (int head = 0; head < inst.jobs(); ++head) {
    const std::vector<JobId> perm = shuffled_jobs(inst.jobs(), rng);
    const std::span<const JobId> prefix =
        std::span<const JobId>(perm).first(static_cast<std::size_t>(head));
    ctx.set_parent(prefix, {});
    std::vector<JobId> child(prefix.begin(), prefix.end());
    child.push_back(0);
    for (std::size_t i = static_cast<std::size_t>(head); i < perm.size();
         ++i) {
      child.back() = perm[i];
      EXPECT_GE(ctx.bound_head_child(perm[i]),
                lb1_from_prefix(inst, data, child))
          << "head " << head << " job " << perm[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lb1BidirRandom, ::testing::Range(0, 12));

}  // namespace
}  // namespace fsbb::fsp
