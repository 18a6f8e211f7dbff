// Cross-backend integration: the serial CPU engine, the threaded CPU
// engine, the work-stealing multi-threaded engine and the hybrid
// CPU/simulated-GPU engine must all prove the same optimum on the same
// instances — the end-to-end guarantee behind every comparison the paper
// makes.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/protocol.h"
#include "fsp/brute_force.h"
#include "fsp/makespan.h"
#include "fsp/taillard.h"
#include "gpubb/gpu_evaluator.h"
#include "mtbb/steal_engine.h"

namespace fsbb {
namespace {

fsp::Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<fsp::Time> pt(static_cast<std::size_t>(jobs),
                       static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<fsp::Time>(rng.next_in(1, 99));
  return fsp::Instance("rand", std::move(pt));
}

class BackendAgreement : public ::testing::TestWithParam<int> {};

TEST_P(BackendAgreement, AllFourBackendsProveTheSameOptimum) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const fsp::Instance inst = random_instance(8, 5, seed);
  const auto data = fsp::LowerBoundData::build(inst);
  const fsp::Time expected = fsp::brute_force(inst).makespan;

  // Serial CPU.
  {
    core::SerialCpuEvaluator eval(inst, data);
    core::BBEngine engine(inst, data, eval, core::EngineOptions{});
    const auto r = engine.solve();
    ASSERT_TRUE(r.proven_optimal);
    ASSERT_EQ(r.best_makespan, expected) << "serial";
  }
  // Threaded-evaluator engine (Type 1 parallel bounding on host threads).
  {
    core::ThreadedCpuEvaluator eval(inst, data, 4);
    core::EngineOptions options;
    options.batch_size = 32;
    core::BBEngine engine(inst, data, eval, options);
    const auto r = engine.solve();
    ASSERT_TRUE(r.proven_optimal);
    ASSERT_EQ(r.best_makespan, expected) << "threaded";
  }
  // Work-stealing sharded-pool B&B (the paper's §V multithreaded CPU).
  {
    mtbb::MtOptions options;
    options.threads = 4;
    const auto r = mtbb::steal_solve(inst, data, options);
    ASSERT_TRUE(r.proven_optimal);
    ASSERT_EQ(r.best_makespan, expected) << "steal";
  }
  // Hybrid CPU + simulated GPU (the paper's contribution).
  {
    gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
    gpubb::GpuBoundEvaluator eval(device, inst, data,
                                  gpubb::PlacementPolicy::kSharedJmPtm);
    core::EngineOptions options;
    options.batch_size = 128;
    core::BBEngine engine(inst, data, eval, options);
    const auto r = engine.solve();
    ASSERT_TRUE(r.proven_optimal);
    ASSERT_EQ(r.best_makespan, expected) << "gpu";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendAgreement, ::testing::Range(0, 6));

TEST(BackendAgreement, FrozenPoolProtocolAcrossBackends) {
  // The paper's §IV protocol end-to-end: freeze a pool on a moderately
  // sized instance, then every backend explores exactly that list.
  const fsp::Instance inst = random_instance(12, 6, 424242);
  const auto data = fsp::LowerBoundData::build(inst);
  const core::FrozenPool frozen =
      core::freeze_pool(inst, data, 100, inst.total_work());

  core::SerialCpuEvaluator serial(inst, data);
  const auto serial_result = core::explore_frozen(
      inst, data, frozen, serial, core::SelectionStrategy::kBestFirst, 1);

  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
  gpubb::GpuBoundEvaluator gpu(device, inst, data,
                               gpubb::PlacementPolicy::kAuto);
  const auto gpu_result = core::explore_frozen(
      inst, data, frozen, gpu, core::SelectionStrategy::kBestFirst, 256);

  mtbb::MtOptions mt_options;
  mt_options.threads = 4;
  const auto steal_result = mtbb::steal_solve_from(
      inst, data, frozen.nodes, frozen.incumbent, mt_options);

  EXPECT_EQ(serial_result.best_makespan, gpu_result.best_makespan);
  EXPECT_EQ(serial_result.best_makespan, steal_result.best_makespan);
  EXPECT_TRUE(serial_result.proven_optimal);
  EXPECT_TRUE(gpu_result.proven_optimal);
  EXPECT_TRUE(steal_result.proven_optimal);
}

TEST(BackendAgreement, IdenticalNodeCountsForIdenticalBatching) {
  // With the same selection strategy, batch size and deterministic bounds,
  // the engine's operator counts must not depend on the evaluator backend.
  const fsp::Instance inst = random_instance(10, 5, 7);
  const auto data = fsp::LowerBoundData::build(inst);
  const core::FrozenPool frozen =
      core::freeze_pool(inst, data, 50, inst.total_work());

  core::SerialCpuEvaluator serial(inst, data);
  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
  gpubb::GpuBoundEvaluator gpu(device, inst, data,
                               gpubb::PlacementPolicy::kSharedJmPtm);

  const auto a = core::explore_frozen(inst, data, frozen, serial,
                                      core::SelectionStrategy::kBestFirst, 64);
  const auto b = core::explore_frozen(inst, data, frozen, gpu,
                                      core::SelectionStrategy::kBestFirst, 64);
  EXPECT_EQ(a.stats.branched, b.stats.branched);
  EXPECT_EQ(a.stats.generated, b.stats.generated);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.pruned, b.stats.pruned);
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
}

}  // namespace
}  // namespace fsbb
