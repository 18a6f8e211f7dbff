// Randomized differential testing of the multi-process distributed path:
// seeded random ta-like instances, each solved by the serial engine
// (the oracle) and by a dist::Coordinator over real worker processes with
// small slices (many checkpoints, live incumbent traffic) — and every
// third run SIGKILLs a worker mid-shard. The distributed optimum must be
// bit-for-bit the serial one, proven, with a schedule that actually has
// that makespan and merged stats that respect the search-tree invariants.
//
// Sharded so ctest -j spreads the runs; each shard is deterministic in its
// index. Skipped when fsbb_serve is not next to the test binary.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "api/solver.h"
#include "api/solver_config.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/process.h"
#include "fsp/makespan.h"

namespace fsbb {
namespace {

constexpr int kShards = 4;
constexpr int kRunsPerShard = 5;  // 4 x 5 = 20 distributed solves

bool worker_binary_available() {
  const std::vector<std::string> cmd = dist::default_worker_command();
  return !cmd.empty() && ::access(cmd.front().c_str(), X_OK) == 0;
}

class DistFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DistFuzz, DistributedOptimumMatchesSerialBitForBit) {
  if (!worker_binary_available()) {
    GTEST_SKIP() << "fsbb_serve not found next to the test binary";
  }
  const int shard = GetParam();
  SplitMix64 rng(0xD157u * 1000003u + static_cast<std::uint64_t>(shard));

  for (int run = 0; run < kRunsPerShard; ++run) {
    api::SolverConfig config;
    config.backend = "cpu-serial";
    config.instance.jobs = static_cast<int>(rng.next_in(8, 11));
    config.instance.machines = static_cast<int>(rng.next_in(3, 8));
    config.instance.seed = static_cast<std::int32_t>(rng.next_below(1 << 30));
    const std::string label =
        std::to_string(config.instance.jobs) + "x" +
        std::to_string(config.instance.machines) + " seed " +
        std::to_string(config.instance.seed);

    const fsp::Instance inst = api::make_instances(config.instance).front();
    const api::SolveReport oracle = api::Solver(config).solve(inst);
    ASSERT_TRUE(oracle.proven_optimal) << label;

    dist::CoordinatorOptions options;
    options.workers = 2 + rng.next_below(2);          // 2..3
    options.frontier_nodes = 16 + rng.next_below(33); // 16..48
    options.slice_nodes = 30 + rng.next_below(171);   // 30..200
    const bool kill = run % 3 == 2;
    if (kill) {
      options.kill_worker =
          static_cast<int>(rng.next_below(options.workers));
      options.kill_after_checkpoints = 1;
    }

    fsp::Instance copy = api::make_instances(config.instance).front();
    dist::Coordinator coordinator(std::move(copy), config, options);
    const api::SolveReport report = coordinator.run();

    EXPECT_EQ(report.best_makespan, oracle.best_makespan)
        << label << (kill ? " (killed worker)" : "");
    EXPECT_TRUE(report.proven_optimal) << label;
    EXPECT_EQ(report.stop_reason, core::StopReason::kOptimal) << label;
    if (!report.best_permutation.empty()) {
      EXPECT_EQ(fsp::makespan(inst, report.best_permutation),
                report.best_makespan)
          << label;
    }
    // One bound per generated non-leaf child on the forward frontier, two
    // (both ends) on the bidirectional cpu-serial workers.
    EXPECT_GE(report.stats.generated, report.stats.branched) << label;
    EXPECT_GE(report.stats.evaluated,
              report.stats.generated - report.stats.leaves)
        << label;
    EXPECT_LE(report.stats.evaluated,
              2 * (report.stats.generated - report.stats.leaves))
        << label;
    const dist::DistSummary& s = coordinator.summary();
    EXPECT_LE(s.shards_completed, s.shards_dispatched) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DistFuzz, ::testing::Range(0, kShards));

}  // namespace
}  // namespace fsbb
