// Multi-process distributed solving end to end: a dist::Coordinator
// driving real `fsbb_serve --worker` child processes. Pins the aggregate
// report against the serial engine (exact optimum, valid schedule, merged
// stats), the early-solve path, crash recovery via fault-injected SIGKILL,
// and the all-workers-dead failure mode.
//
// Skipped when fsbb_serve is not next to this test binary (both land in
// the build root; a partial build is the only way to lose it).
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "api/solver.h"
#include "api/solver_config.h"
#include "common/check.h"
#include "dist/coordinator.h"
#include "dist/process.h"
#include "fsp/makespan.h"

namespace fsbb {
namespace {

bool worker_binary_available() {
  const std::vector<std::string> cmd = dist::default_worker_command();
  return !cmd.empty() && ::access(cmd.front().c_str(), X_OK) == 0;
}

#define SKIP_WITHOUT_WORKER_BINARY()                                   \
  if (!worker_binary_available()) {                                    \
    GTEST_SKIP() << "fsbb_serve not found next to the test binary";    \
  }

api::SolverConfig small_config(int jobs, int machines, std::int32_t seed) {
  api::SolverConfig config;
  config.backend = "cpu-serial";
  config.instance.jobs = jobs;
  config.instance.machines = machines;
  config.instance.seed = seed;
  return config;
}

/// The serial engine's proven optimum for the config's single instance.
api::SolveReport serial_oracle(const api::SolverConfig& config) {
  const fsp::Instance inst = api::make_instances(config.instance).front();
  const api::SolveReport report = api::Solver(config).solve(inst);
  EXPECT_TRUE(report.proven_optimal);
  return report;
}

TEST(DistSolve, CleanRunMatchesTheSerialEngine) {
  SKIP_WITHOUT_WORKER_BINARY();
  const api::SolverConfig config = small_config(12, 6, 42);
  const api::SolveReport oracle = serial_oracle(config);

  dist::CoordinatorOptions options;
  options.workers = 3;
  options.frontier_nodes = 48;
  options.slice_nodes = 500;
  fsp::Instance inst = api::make_instances(config.instance).front();
  dist::Coordinator coordinator(std::move(inst), config, options);
  const api::SolveReport report = coordinator.run();

  EXPECT_EQ(report.best_makespan, oracle.best_makespan);
  EXPECT_TRUE(report.proven_optimal);
  EXPECT_EQ(report.stop_reason, core::StopReason::kOptimal);
  EXPECT_EQ(report.backend, "dist:cpu-serial");
  ASSERT_FALSE(report.best_permutation.empty());
  const fsp::Instance check = api::make_instances(config.instance).front();
  EXPECT_EQ(fsp::makespan(check, report.best_permutation),
            report.best_makespan);

  // Merged per-worker stats still satisfy the search-tree invariants.
  // Every generated non-leaf child is bounded once (the forward frontier)
  // or with its sibling end (bidirectional cpu-serial workers bound both
  // ends' children and keep one end's), so evaluated is bracketed by one
  // and two bounds per generated non-leaf child.
  EXPECT_GE(report.stats.generated, report.stats.branched);
  EXPECT_GE(report.stats.evaluated,
            report.stats.generated - report.stats.leaves);
  EXPECT_LE(report.stats.evaluated,
            2 * (report.stats.generated - report.stats.leaves));
  EXPECT_GT(report.stats.branched, 0u);

  // Every dispatch either completes or is recalled/requeued into new
  // dispatches, so completed <= dispatched and both are positive; without
  // fault injection no worker ever dies.
  const dist::DistSummary& s = coordinator.summary();
  EXPECT_GT(s.shards_completed, 0u);
  EXPECT_LE(s.shards_completed, s.shards_dispatched);
  EXPECT_EQ(s.respawns, 0u);
}

TEST(DistSolve, SigkilledWorkerRecoversToTheExactOptimum) {
  SKIP_WITHOUT_WORKER_BINARY();
  const api::SolverConfig config = small_config(12, 6, 42);
  const api::SolveReport oracle = serial_oracle(config);

  dist::CoordinatorOptions options;
  options.workers = 3;
  options.frontier_nodes = 48;
  // Slices small enough that shards checkpoint several times — the kill
  // fires on worker 1's first checkpoint ack, mid-shard.
  options.slice_nodes = 25;
  options.kill_worker = 1;
  options.kill_after_checkpoints = 1;
  fsp::Instance inst = api::make_instances(config.instance).front();
  dist::Coordinator coordinator(std::move(inst), config, options);
  const api::SolveReport report = coordinator.run();

  // Bit-for-bit the serial optimum, SIGKILL or not: the respawned shard
  // resumes from the last acked checkpoint, which carries the complete
  // remaining sub-pool.
  EXPECT_EQ(report.best_makespan, oracle.best_makespan);
  EXPECT_TRUE(report.proven_optimal);
  ASSERT_FALSE(report.best_permutation.empty());
  const fsp::Instance check = api::make_instances(config.instance).front();
  EXPECT_EQ(fsp::makespan(check, report.best_permutation),
            report.best_makespan);
  const dist::DistSummary& s = coordinator.summary();
  EXPECT_GT(s.shards_completed, 0u);
  EXPECT_LE(s.shards_completed, s.shards_dispatched);
}

TEST(DistSolve, EarlySolveAtTheFrontierSkipsDispatch) {
  SKIP_WITHOUT_WORKER_BINARY();
  const api::SolverConfig config = small_config(7, 4, 9);
  const api::SolveReport oracle = serial_oracle(config);

  dist::CoordinatorOptions options;
  options.workers = 2;
  options.frontier_nodes = 1000000;  // unreachable: the root run exhausts
  fsp::Instance inst = api::make_instances(config.instance).front();
  dist::Coordinator coordinator(std::move(inst), config, options);
  const api::SolveReport report = coordinator.run();

  EXPECT_EQ(report.best_makespan, oracle.best_makespan);
  EXPECT_TRUE(report.proven_optimal);
  EXPECT_EQ(coordinator.summary().shards_dispatched, 0u);
}

TEST(DistSolve, ThrowsWhenEveryWorkerIsGone) {
  const api::SolverConfig config = small_config(12, 6, 42);
  dist::CoordinatorOptions options;
  options.workers = 2;
  options.frontier_nodes = 32;
  options.max_respawns = 1;
  options.respawn_backoff_seconds = 0.0;
  // A worker that exits immediately without ever speaking the protocol.
  options.worker_command = {"/bin/false"};
  fsp::Instance inst = api::make_instances(config.instance).front();
  dist::Coordinator coordinator(std::move(inst), config, options);
  EXPECT_THROW(coordinator.run(), CheckFailure);
}

}  // namespace
}  // namespace fsbb
