#include "fsp/brute_force.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "fsp/makespan.h"

namespace fsbb::fsp {
namespace {

TEST(BruteForce, TwoJobInstancePicksBetterOrder) {
  Matrix<Time> pt(2, 2);
  pt(0, 0) = 3;
  pt(0, 1) = 2;
  pt(1, 0) = 1;
  pt(1, 1) = 4;
  const Instance inst("tiny", std::move(pt));
  const BruteForceResult r = brute_force(inst);
  EXPECT_EQ(r.makespan, 7);
  EXPECT_EQ(r.permutation, (std::vector<JobId>{1, 0}));
  EXPECT_EQ(r.schedules_evaluated, 2u);
}

TEST(BruteForce, EvaluatesFactoriallyManySchedules) {
  SplitMix64 rng(5);
  Matrix<Time> pt(6, 3);
  for (auto& v : pt.flat()) v = static_cast<Time>(rng.next_in(1, 9));
  const Instance inst("6x3", std::move(pt));
  const BruteForceResult r = brute_force(inst);
  EXPECT_EQ(r.schedules_evaluated, 720u);
  EXPECT_EQ(r.makespan, makespan(inst, r.permutation));
}

TEST(BruteForce, GuardsAgainstLargeInstances) {
  // Above the default limit: refused before enumerating anything.
  Matrix<Time> pt(12, 2, 1);
  const Instance inst("12x2", std::move(pt));
  EXPECT_THROW(brute_force(inst), CheckFailure);
  // The limit is what guards: a 5-job instance throws under a 4-job limit
  // and runs (5! schedules) once the limit is raised to cover it.
  Matrix<Time> small_pt(5, 2, 1);
  const Instance small("5x2", std::move(small_pt));
  EXPECT_THROW(brute_force(small, /*max_jobs=*/4), CheckFailure);
  EXPECT_NO_THROW(brute_force(small, /*max_jobs=*/5));
}

TEST(BruteForceCompletion, RespectsThePrefix) {
  SplitMix64 rng(8);
  Matrix<Time> pt(6, 3);
  for (auto& v : pt.flat()) v = static_cast<Time>(rng.next_in(1, 9));
  const Instance inst("6x3", std::move(pt));

  const std::vector<JobId> prefix{2, 4};
  const BruteForceResult r = brute_force_completion(inst, prefix);
  EXPECT_EQ(r.schedules_evaluated, 24u);  // 4! completions
  ASSERT_EQ(r.permutation.size(), 6u);
  EXPECT_EQ(r.permutation[0], 2);
  EXPECT_EQ(r.permutation[1], 4);
  EXPECT_TRUE(is_valid_permutation(inst, r.permutation));
  // No completion may beat the reported optimum.
  EXPECT_LE(r.makespan, makespan(inst, std::vector<JobId>{2, 4, 0, 1, 3, 5}));
}

TEST(BruteForceCompletion, FullPrefixReturnsItsMakespan) {
  Matrix<Time> pt(3, 2, 2);
  const Instance inst("3x2", std::move(pt));
  const std::vector<JobId> perm{2, 0, 1};
  const BruteForceResult r = brute_force_completion(inst, perm);
  EXPECT_EQ(r.schedules_evaluated, 1u);
  EXPECT_EQ(r.makespan, makespan(inst, perm));
}

TEST(BruteForceCompletion, RejectsDuplicatePrefixJobs) {
  Matrix<Time> pt(4, 2, 1);
  const Instance inst("4x2", std::move(pt));
  EXPECT_THROW(brute_force_completion(inst, std::vector<JobId>{1, 1}),
               CheckFailure);
}

}  // namespace
}  // namespace fsbb::fsp
