// Randomized differential testing: ~200 seeded random instances drawn from
// every fsp::generators family (n <= 9 so the brute-force oracle stays
// cheap, m varied), and every registered backend — including the
// work-stealing cpu-steal engine — must match the oracle on makespan and
// prove optimality. This is the exactness net under the concurrent engines:
// a racy incumbent, a lost node or an unsound bound shows up here as a
// wrong or unproven optimum on a pinpointed (family, n, m, seed) tuple.
//
// Sharded so ctest -j spreads the instances across cores; every shard is
// deterministic in its index.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/backend_registry.h"
#include "api/solver.h"
#include "common/rng.h"
#include "core/audit.h"
#include "core/engine.h"
#include "core/search_control.h"
#include "fsp/brute_force.h"
#include "fsp/generators.h"
#include "fsp/makespan.h"
#include "gpubb/multi_device_pool.h"
#include "gpusim/device_spec.h"

namespace fsbb {
namespace {

constexpr int kShards = 8;
constexpr int kInstancesPerShard = 25;  // 8 x 25 = 200 instances

constexpr fsp::InstanceFamily kFamilies[] = {
    fsp::InstanceFamily::kUniform,           fsp::InstanceFamily::kJobCorrelated,
    fsp::InstanceFamily::kMachineCorrelated, fsp::InstanceFamily::kTrend,
    fsp::InstanceFamily::kTwoPlateaus,
};

/// The forward-branching host reference: BBEngine over SerialCpuEvaluator
/// (or ThreadedCpuEvaluator) with forward options. The registry's
/// cpu-serial and cpu-threads branch at both ends of the permutation; the
/// device lanes and the callback backend still branch forward, so their
/// counter-for-counter comparisons run against this engine instead.
core::SolveResult forward_host(const fsp::Instance& inst,
                               core::SelectionStrategy strategy,
                               std::size_t batch, std::size_t threads = 0) {
  const auto data = fsp::LowerBoundData::build(inst);
  std::unique_ptr<core::BoundEvaluator> eval;
  if (threads == 0) {
    eval = std::make_unique<core::SerialCpuEvaluator>(inst, data);
  } else {
    eval = std::make_unique<core::ThreadedCpuEvaluator>(inst, data, threads);
  }
  core::EngineOptions o;
  o.strategy = strategy;
  o.batch_size = batch;
  core::BBEngine engine(inst, data, *eval, o);
  return engine.solve();
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, EveryBackendMatchesBruteForce) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0xD1FFu * 1000003u + static_cast<std::uint64_t>(shard));
  const std::vector<std::string> backends = api::BackendRegistry::global().keys();

  for (int i = 0; i < kInstancesPerShard; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(5, 9));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);

    const fsp::BruteForceResult oracle = fsp::brute_force(inst);
    ASSERT_EQ(fsp::makespan(inst, oracle.permutation), oracle.makespan)
        << label;

    for (const std::string& backend : backends) {
      api::SolverConfig config;
      config.backend = backend;
      config.threads = 3;
      const api::SolveReport report = api::Solver(config).solve(inst);
      EXPECT_TRUE(report.proven_optimal) << backend << " on " << label;
      EXPECT_EQ(report.best_makespan, oracle.makespan)
          << backend << " on " << label;
      if (!report.best_permutation.empty()) {
        EXPECT_EQ(fsp::makespan(inst, report.best_permutation),
                  report.best_makespan)
            << backend << " on " << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz,
                         ::testing::Range(0, kShards));

// The incremental sibling-batch seam (Lb1BoundContext through
// evaluate_siblings) against the prefix-replay path (CallbackEvaluator,
// which takes the default flat-batch fallback): same engine, same batch
// size, forward branching on both sides, so not just the optimum but the
// *entire search* — every counter of every operator — must be
// bit-identical. A single off-by-one bound would branch a different tree
// and show up in `generated`/`pruned`.
class SeamVsReplayFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SeamVsReplayFuzz, SearchCountersAreBitIdentical) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0x5EA3u * 999983u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 8; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 10));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);

    // The serial and the threaded evaluator cover both sibling-capable
    // evaluators; callback with the same batch size is the replay
    // reference.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      api::SolverConfig replay;
      replay.backend = "callback";
      replay.batch_size = batch;

      const core::SolveResult a =
          forward_host(inst, core::SelectionStrategy::kBestFirst, batch,
                       batch == 1 ? 0 : 3);
      const api::SolveReport b = api::Solver(replay).solve(inst);
      ASSERT_EQ(a.best_makespan, b.best_makespan) << label;
      ASSERT_EQ(a.proven_optimal, b.proven_optimal) << label;
      ASSERT_EQ(a.best_permutation, b.best_permutation) << label;
      ASSERT_EQ(a.stats.branched, b.stats.branched) << label;
      ASSERT_EQ(a.stats.generated, b.stats.generated) << label;
      ASSERT_EQ(a.stats.evaluated, b.stats.evaluated) << label;
      ASSERT_EQ(a.stats.pruned, b.stats.pruned) << label;
      ASSERT_EQ(a.stats.leaves, b.stats.leaves) << label;
      ASSERT_EQ(a.stats.ub_updates, b.stats.ub_updates) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SeamVsReplayFuzz, ::testing::Range(0, 4));

// The device-resident pool path against the host reference: gpu-sim (and
// adaptive) drive ResidentPool::iterate offload iterations, cpu-serial
// drives the sibling seam — same engine, same batch size, so not just the
// optimum but every search counter must be bit-identical. A single wrong
// device-side bound, a lost child slot or a mis-derived permutation would
// branch a different tree and show up in `generated`/`pruned`.
class GpuResidentVsSerialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GpuResidentVsSerialFuzz, SearchCountersAreBitIdentical) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0x6F0A1u * 1000003u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 6; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 10));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);

    // Same offload shape on both sides.
    const core::SolveResult reference =
        forward_host(inst, core::SelectionStrategy::kBestFirst, 64);

    for (const std::string backend : {"gpu-sim", "adaptive"}) {
      api::SolverConfig gpu;
      gpu.backend = backend;
      gpu.batch_size = 64;
      gpu.threads = 3;
      const api::SolveReport report = api::Solver(gpu).solve(inst);
      ASSERT_EQ(report.best_makespan, reference.best_makespan)
          << backend << " " << label;
      ASSERT_EQ(report.best_permutation, reference.best_permutation)
          << backend << " " << label;
      ASSERT_EQ(report.stats.branched, reference.stats.branched)
          << backend << " " << label;
      ASSERT_EQ(report.stats.generated, reference.stats.generated)
          << backend << " " << label;
      ASSERT_EQ(report.stats.evaluated, reference.stats.evaluated)
          << backend << " " << label;
      ASSERT_EQ(report.stats.pruned, reference.stats.pruned)
          << backend << " " << label;
      ASSERT_EQ(report.stats.leaves, reference.stats.leaves)
          << backend << " " << label;
      ASSERT_EQ(report.stats.ub_updates, reference.stats.ub_updates)
          << backend << " " << label;
      if (backend == "gpu-sim") {
        // The resident pool actually carried the search: shard stats are
        // present and account every bounded child.
        ASSERT_TRUE(report.pool.has_value()) << label;
        std::uint64_t allocated = 0;
        for (const auto& s : report.pool->shards) allocated += s.allocated;
        EXPECT_EQ(allocated + report.pool->overflow, report.stats.evaluated)
            << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, GpuResidentVsSerialFuzz,
                         ::testing::Range(0, 4));

// The per-thread device DFS pool against the host depth-first reference:
// gpu-sim --gpu-pool dfs drives whole-subtree kernel launches (fused
// select/branch/bound, lazy pop-time elimination inside the kernel),
// cpu-serial with --strategy depth-first --batch-size 1 replays the same
// exploration order one node at a time. Every counter must be
// bit-identical: a wrong IvmNode decode, a missed incumbent check between
// expansions or a mis-ordered resurface after the quota recall would
// branch a different tree.
class GpuDfsVsSerialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GpuDfsVsSerialFuzz, SearchCountersAreBitIdentical) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0xDF5B1u * 1000003u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 6; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 10));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);

    // Batch 1: the order the kernel lanes replay.
    const core::SolveResult reference =
        forward_host(inst, core::SelectionStrategy::kDepthFirst, 1);

    api::SolverConfig gpu;
    gpu.backend = "gpu-sim";
    gpu.strategy = core::SelectionStrategy::kDepthFirst;
    gpu.gpu_pool = gpubb::GpuPoolMode::kDfs;
    const api::SolveReport report = api::Solver(gpu).solve(inst);
    ASSERT_EQ(report.best_makespan, reference.best_makespan) << label;
    ASSERT_EQ(report.proven_optimal, reference.proven_optimal) << label;
    ASSERT_EQ(report.best_permutation, reference.best_permutation) << label;
    ASSERT_EQ(report.stats.branched, reference.stats.branched) << label;
    ASSERT_EQ(report.stats.generated, reference.stats.generated) << label;
    ASSERT_EQ(report.stats.evaluated, reference.stats.evaluated) << label;
    ASSERT_EQ(report.stats.pruned, reference.stats.pruned) << label;
    ASSERT_EQ(report.stats.leaves, reference.stats.leaves) << label;
    ASSERT_EQ(report.stats.ub_updates, reference.stats.ub_updates) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, GpuDfsVsSerialFuzz, ::testing::Range(0, 4));

// The multi-device pool against the host reference: gpu-sim with
// --gpu-devices 2 (and one heterogeneous c2050+c1060 mix) shards the
// resident pool over two simulated cards — refill routing, outer-ticket
// translation and cross-card incumbent broadcast all live on the solve
// path — while cpu-serial drives the sibling seam with the same batch
// size. Same engine, same serial control flow, so every counter and the
// incumbent stream must be bit-identical: a group routed to the wrong
// card, a mistranslated ticket or a lost payload would branch a
// different tree. Includes a mid-solve cancel (both engines stop at the
// same batch boundary) and a starved-device rebalance run with the
// ticket-conservation identity pinned.
class MultiDeviceVsSerialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceVsSerialFuzz, SearchCountersAreBitIdentical) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0x3D0C1u * 1000003u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 5; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 10));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);

    // Same offload shape on both sides.
    const core::SolveResult reference =
        forward_host(inst, core::SelectionStrategy::kBestFirst, 64);

    // Device layouts under test: homogeneous pair, heterogeneous mix.
    for (const char* devices : {"2", "2:c2050,c1060"}) {
      api::SolverConfig gpu;
      gpu.backend = "gpu-sim";
      gpu.batch_size = 64;
      gpu.gpu_devices = devices;
      const api::SolveReport report = api::Solver(gpu).solve(inst);
      ASSERT_EQ(report.best_makespan, reference.best_makespan)
          << devices << " " << label;
      ASSERT_EQ(report.best_permutation, reference.best_permutation)
          << devices << " " << label;
      ASSERT_EQ(report.stats.branched, reference.stats.branched)
          << devices << " " << label;
      ASSERT_EQ(report.stats.generated, reference.stats.generated)
          << devices << " " << label;
      ASSERT_EQ(report.stats.evaluated, reference.stats.evaluated)
          << devices << " " << label;
      ASSERT_EQ(report.stats.pruned, reference.stats.pruned)
          << devices << " " << label;
      ASSERT_EQ(report.stats.leaves, reference.stats.leaves)
          << devices << " " << label;
      ASSERT_EQ(report.stats.ub_updates, reference.stats.ub_updates)
          << devices << " " << label;
      // The sharded pool carried the search, and the ticket conservation
      // identity holds: every bounded child was a resident slot, an
      // overflow, or a rebalancer move.
      ASSERT_TRUE(report.pool.has_value()) << devices << " " << label;
      EXPECT_EQ(report.pool->devices, 2u) << devices << " " << label;
      std::uint64_t allocated = 0;
      for (const auto& s : report.pool->shards) allocated += s.allocated;
      EXPECT_EQ(allocated + report.pool->overflow,
                report.stats.evaluated + report.pool->rebalanced)
          << devices << " " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MultiDeviceVsSerialFuzz,
                         ::testing::Range(0, 4));

// Mid-solve cancellation determinism: both engines share the batch size,
// so a cancel latched at the first incumbent event stops both at the
// same batch boundary — counters stay bit-identical even though the
// solve is cut short. Drives BBEngine directly (the facade owns its
// control block; here the test needs to inject the cancel).
TEST(MultiDeviceVsSerialCancel, CanceledSearchesStayBitIdentical) {
  const core::audit::ScopedEnable audited;
  const fsp::Instance inst = fsp::make_instance(
      fsp::InstanceFamily::kUniform, 9, 6, 0xC4A11u);
  const auto data = fsp::LowerBoundData::build(inst);

  const auto canceled_solve = [&](core::BoundEvaluator& eval) {
    core::SearchControl control;
    control.set_sink([&](const core::SearchEvent& e) {
      if (e.kind == core::SearchEvent::Kind::kIncumbent) {
        control.request_cancel();
      }
    });
    core::EngineOptions o;
    o.strategy = core::SelectionStrategy::kDepthFirst;
    o.batch_size = 16;
    // Loose starting incumbent: the first leaf reached improves it, the
    // sink fires, and the cancel latches long before exhaustion.
    o.initial_ub = 1000000;
    o.control = &control;
    core::BBEngine engine(inst, data, eval, o);
    return engine.solve();
  };

  core::SerialCpuEvaluator serial_eval(inst, data);
  const core::SolveResult reference = canceled_solve(serial_eval);
  ASSERT_EQ(reference.stop_reason, core::StopReason::kCanceled);

  gpubb::MultiDeviceConfig mdc;
  mdc.specs = {gpusim::DeviceSpec::tesla_c2050(),
               gpusim::DeviceSpec::tesla_c1060()};
  gpubb::MultiDevicePool pool(inst, data, mdc);
  const core::SolveResult result = canceled_solve(pool);

  EXPECT_EQ(result.stop_reason, core::StopReason::kCanceled);
  EXPECT_EQ(result.best_makespan, reference.best_makespan);
  EXPECT_EQ(result.best_permutation, reference.best_permutation);
  EXPECT_EQ(result.stats.branched, reference.stats.branched);
  EXPECT_EQ(result.stats.generated, reference.stats.generated);
  EXPECT_EQ(result.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(result.stats.pruned, reference.stats.pruned);
  EXPECT_EQ(result.stats.leaves, reference.stats.leaves);
  EXPECT_EQ(result.stats.ub_updates, reference.stats.ub_updates);
}

// Starved-device rebalance on the live solve path: tiny per-card pools
// and an aggressive trigger force recall-and-resplit traffic during a
// real solve, and the search must still be bit-identical to the serial
// reference with conservation intact (the engine never observes a move —
// its outer tickets stay stable).
TEST(MultiDeviceVsSerialRebalance, RebalancedSearchStaysBitIdentical) {
  const core::audit::ScopedEnable audited;
  const fsp::Instance inst = fsp::make_instance(
      fsp::InstanceFamily::kTwoPlateaus, 9, 7, 0x5EEDBA1u);
  const auto data = fsp::LowerBoundData::build(inst);

  core::EngineOptions o;
  o.batch_size = 64;
  core::SerialCpuEvaluator serial_eval(inst, data);
  core::BBEngine serial_engine(inst, data, serial_eval, o);
  const core::SolveResult reference = serial_engine.solve();

  gpubb::MultiDeviceConfig mdc;
  mdc.specs = {gpusim::DeviceSpec::tesla_c2050(),
               gpusim::DeviceSpec::tesla_c2050()};
  mdc.pool_config.shards = 2;
  mdc.pool_config.slots_per_shard = 16;
  mdc.pool_config.block_threads = 8;
  mdc.rebalance_min_gap = 4;  // aggressive: rebalance on small skews
  mdc.rebalance_batch = 8;
  gpubb::MultiDevicePool pool(inst, data, mdc);
  core::BBEngine engine(inst, data, pool, o);
  const core::SolveResult result = engine.solve();

  EXPECT_GT(pool.rebalanced(), 0u) << "test knobs no longer trigger moves";
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, reference.best_makespan);
  EXPECT_EQ(result.best_permutation, reference.best_permutation);
  EXPECT_EQ(result.stats.branched, reference.stats.branched);
  EXPECT_EQ(result.stats.generated, reference.stats.generated);
  EXPECT_EQ(result.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(result.stats.pruned, reference.stats.pruned);
  EXPECT_EQ(result.stats.leaves, reference.stats.leaves);
  EXPECT_EQ(result.stats.ub_updates, reference.stats.ub_updates);

  ASSERT_TRUE(result.pool.has_value());
  std::uint64_t allocated = 0;
  for (const auto& s : result.pool->shards) allocated += s.allocated;
  EXPECT_EQ(allocated + result.pool->overflow,
            result.stats.evaluated + result.pool->rebalanced);
}

// Bidirectional branching across the host engines: from a fixed incumbent
// (the brute-force optimum, which no schedule beats) the end choice
// depends only on the node, so cpu-serial (batch 1), cpu-threads
// (batch 64) and cpu-steal at 1, 2, 4 and 8 workers grow exactly the same
// two-ended tree in whatever order they explore it: every operator counter
// must agree.
class BidirectionalHostFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BidirectionalHostFuzz, FixedIncumbentTreesAreIdentical) {
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0xB1D1u * 1000003u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 5; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 10));
    const int machines = static_cast<int>(rng.next_in(2, 10));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const std::string label = std::string(fsp::to_string(family)) + " " +
                              std::to_string(jobs) + "x" +
                              std::to_string(machines) + " seed " +
                              std::to_string(seed);
    const fsp::Time optimum = fsp::brute_force(inst).makespan;

    const auto solve = [&](const char* backend, std::size_t threads) {
      api::SolverConfig config;
      config.backend = backend;
      config.threads = threads;
      config.initial_ub = optimum;
      return api::Solver(config).solve(inst);
    };
    const api::SolveReport reference = solve("cpu-serial", 1);
    ASSERT_TRUE(reference.proven_optimal) << label;
    // Both ends are bounded at every branched node with two children or
    // more: two bounds per generated non-leaf child.
    ASSERT_EQ(reference.stats.evaluated,
              2 * (reference.stats.generated - reference.stats.leaves))
        << label;

    std::vector<std::pair<std::string, api::SolveReport>> runs;
    runs.emplace_back("cpu-threads", solve("cpu-threads", 3));
    for (const std::size_t threads : {1, 2, 4, 8}) {
      runs.emplace_back("cpu-steal x" + std::to_string(threads),
                        solve("cpu-steal", threads));
    }
    for (const auto& [name, report] : runs) {
      EXPECT_TRUE(report.proven_optimal) << name << " on " << label;
      EXPECT_EQ(report.best_makespan, optimum) << name << " on " << label;
      EXPECT_EQ(report.stats.branched, reference.stats.branched)
          << name << " on " << label;
      EXPECT_EQ(report.stats.generated, reference.stats.generated)
          << name << " on " << label;
      EXPECT_EQ(report.stats.evaluated, reference.stats.evaluated)
          << name << " on " << label;
      EXPECT_EQ(report.stats.pruned, reference.stats.pruned)
          << name << " on " << label;
      EXPECT_EQ(report.stats.leaves, reference.stats.leaves)
          << name << " on " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, BidirectionalHostFuzz,
                         ::testing::Range(0, 4));

// cpu-steal's LB2 plumbing (per-worker Lb2Scratch): the work-stealing
// engine under --bound lb2 must prove the same optimum as the serial LB2
// reference on every generator family.
class StealLb2Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(StealLb2Fuzz, Lb2StealMatchesSerialLb2) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0x1B2A7u * 999979u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 5; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 9));
    const int machines = static_cast<int>(rng.next_in(3, 8));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const fsp::Time expected = fsp::brute_force(inst).makespan;

    api::SolverConfig steal;
    steal.backend = "cpu-steal";
    steal.bound = api::Bound::kLb2;
    steal.threads = 4;
    const api::SolveReport report = api::Solver(steal).solve(inst);
    EXPECT_TRUE(report.proven_optimal) << "seed " << seed;
    EXPECT_EQ(report.best_makespan, expected) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, StealLb2Fuzz, ::testing::Range(0, 4));

// The steal engine's one knob, its worker count, gets a dedicated sweep:
// two workers (one steal target each) and eight (more workers than cores
// on a small host, so thieves get descheduled mid-steal) must both prove
// the brute-force optimum.
class StealKnobFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StealKnobFuzz, KnobsNeverChangeTheOptimum) {
  // Every solve in this body runs with the invariant auditors live
  // (core/audit.h): arena slot lifecycle, resident-pool tickets and
  // incumbent monotonicity all fail the test loudly if violated.
  const core::audit::ScopedEnable audited;
  const int shard = GetParam();
  SplitMix64 rng(0x57EA1u * 1000033u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 5; ++i) {
    const auto family = kFamilies[rng.next_below(std::size(kFamilies))];
    const int jobs = static_cast<int>(rng.next_in(6, 9));
    const int machines = static_cast<int>(rng.next_in(3, 8));
    const std::uint64_t seed = rng.next();
    const fsp::Instance inst =
        fsp::make_instance(family, jobs, machines, seed);
    const fsp::Time expected = fsp::brute_force(inst).makespan;

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      api::SolverConfig config;
      config.backend = "cpu-steal";
      config.threads = threads;
      const api::SolveReport report = api::Solver(config).solve(inst);
      EXPECT_TRUE(report.proven_optimal)
          << threads << " threads on seed " << seed;
      EXPECT_EQ(report.best_makespan, expected)
          << threads << " threads on seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, StealKnobFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace fsbb
