// The simulator's exact-accounting contract for the LB1 kernels: the flat
// and resident kernels run the LB1 sweep over raw table pointers and
// charge its loads in closed form (charge_lb1_sweep), so every counter
// must equal what a per-access counting provider records — and every
// KernelRun field must equal the values recorded before the closed form
// and warp-granular scheduling existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "fsp/lb1.h"
#include "fsp/neh.h"
#include "fsp/taillard.h"
#include "gpubb/lb_kernel.h"
#include "gpubb/placement.h"
#include "gpubb/resident_pool.h"

namespace fsbb::gpubb {
namespace {

/// Every KernelRun field, flattened for one EXPECT_EQ: per-space
/// loads/stores (global, shared, constant, local, register), arithmetic
/// ops, work_units_sum, work_units_warp_max, threads executed/logical and
/// blocks executed.
using RunFields = std::array<std::uint64_t, 16>;

RunFields fields_of(const gpusim::KernelRun& run) {
  RunFields f{};
  std::size_t i = 0;
  for (const gpusim::SpaceCounters& s : run.counters.space) {
    f[i++] = s.loads;
    f[i++] = s.stores;
  }
  f[i++] = run.counters.arithmetic_ops;
  f[i++] = run.work_units_sum;
  f[i++] = run.work_units_warp_max;
  f[i++] = static_cast<std::uint64_t>(run.threads_executed);
  f[i++] = static_cast<std::uint64_t>(run.threads_logical);
  f[i++] = static_cast<std::uint64_t>(run.blocks_executed);
  return f;
}

std::vector<core::Subproblem> random_pool(const fsp::Instance& inst, int count,
                                          std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<core::Subproblem> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::Subproblem sp = core::Subproblem::root(inst.jobs());
    shuffle(sp.perm, rng);
    sp.depth = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(inst.jobs())));
    pool.push_back(std::move(sp));
  }
  return pool;
}

// --- charge_lb1_sweep vs counting every access ---------------------------

// ((jobs, machines) of the instance class, placement policy).
using ChargeCase = std::tuple<std::tuple<int, int>, PlacementPolicy>;

class SweepCharge : public ::testing::TestWithParam<ChargeCase> {};

/// Machine fronts and scheduled mask of the length-`depth` prefix of `perm`.
void prefix_state(const fsp::Instance& inst, std::span<const fsp::JobId> perm,
                  int depth, std::vector<fsp::Time>& fronts,
                  std::vector<std::uint8_t>& scheduled) {
  fronts.assign(static_cast<std::size_t>(inst.machines()), 0);
  scheduled.assign(static_cast<std::size_t>(inst.jobs()), 0);
  for (int pos = 0; pos < depth; ++pos) {
    const fsp::JobId job = perm[static_cast<std::size_t>(pos)];
    scheduled[static_cast<std::size_t>(job)] = 1;
    fsp::Time prev = 0;
    for (int k = 0; k < inst.machines(); ++k) {
      auto& f = fronts[static_cast<std::size_t>(k)];
      f = std::max(prev, f) + inst.pt(job, k);
      prev = f;
    }
  }
}

// The flat kernel sweeps a node of depth d (f = n - d free jobs); the
// resident kernel sweeps the child of a depth-d parent (f = n - d - 1).
// Either way the closed-form charge must equal what DeviceLb1Provider —
// which counts every table read through ThreadCtx::ld — records for the
// same sweep, space by space, and RawLb1Provider must give the same bound.
TEST_P(SweepCharge, ClosedFormEqualsCountingProvider) {
  const auto [shape, policy] = GetParam();
  const auto [jobs, machines] = shape;
  const fsp::Instance inst = fsp::make_taillard_instance(
      jobs, machines, 7000 + jobs * 100 + machines, "charge");
  const auto data = fsp::LowerBoundData::build(inst);
  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
  const DeviceLbData dev_data(
      device, data, make_placement_plan(policy, data, device.spec()));
  const RawLb1Provider raw(dev_data);

  SplitMix64 rng(static_cast<std::uint64_t>(jobs * 31 + machines));
  std::vector<fsp::Time> fronts;
  std::vector<std::uint8_t> scheduled;
  for (int trial = 0; trial < 40; ++trial) {
    core::Subproblem sp = core::Subproblem::root(jobs);
    shuffle(sp.perm, rng);
    const bool resident = trial % 2 == 1;
    // Parent depth d; the resident kernel's child adds one more job.
    const int d = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(resident ? jobs - 1 : jobs)));
    const int swept = resident ? d + 1 : d;
    const int free_jobs = resident ? jobs - d - 1 : jobs - d;
    prefix_state(inst, sp.perm, swept, fronts, scheduled);

    gpusim::AccessCounters counted, charged;
    gpusim::ThreadCtx counted_ctx(0, 0, 1, counted);
    gpusim::ThreadCtx charged_ctx(0, 0, 1, charged);
    const fsp::Time lb_counted = fsp::lb1_evaluate(
        DeviceLb1Provider(counted_ctx, dev_data), fronts, scheduled);
    const fsp::Time lb_raw = fsp::lb1_evaluate(raw, fronts, scheduled);
    charge_lb1_sweep(charged_ctx, dev_data, free_jobs);

    ASSERT_EQ(lb_raw, lb_counted) << trial;
    const std::span<const fsp::JobId> prefix(
        sp.perm.data(), static_cast<std::size_t>(swept));
    ASSERT_EQ(lb_raw, fsp::lb1_from_prefix(inst, data, prefix)) << trial;
    for (int s = 0; s < gpusim::kNumSpaces; ++s) {
      const auto space = static_cast<gpusim::MemSpace>(s);
      ASSERT_EQ(charged.of(space).loads, counted.of(space).loads)
          << "trial " << trial << " space " << gpusim::to_string(space);
      ASSERT_EQ(charged.of(space).stores, 0u);
      ASSERT_EQ(counted.of(space).stores, 0u);
    }
    ASSERT_EQ(charged.arithmetic_ops, counted.arithmetic_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndPlacements, SweepCharge,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(5, 5), std::make_tuple(20, 5),
                          std::make_tuple(20, 20), std::make_tuple(50, 10)),
        ::testing::Values(PlacementPolicy::kAllGlobal,
                          PlacementPolicy::kSharedJmPtm,
                          PlacementPolicy::kSharedJm,
                          PlacementPolicy::kSharedPtm,
                          PlacementPolicy::kAuto)));

// --- golden KernelRuns ---------------------------------------------------

/// Flat-kernel KernelRun of a fixed 300-node ta021 pool, per placement.
class FlatKernelGolden : public ::testing::TestWithParam<
                             std::pair<PlacementPolicy, RunFields>> {};

TEST_P(FlatKernelGolden, Ta021PoolRunIsPinned) {
  const auto& [policy, golden] = GetParam();
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  ThreadPool host(3);
  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050(), &host);
  const DeviceLbData dev_data(
      device, data, make_placement_plan(policy, data, device.spec()));
  const auto nodes = random_pool(inst, 300, 2112);
  PackedPool packed = PackedPool::pack(nodes, inst.jobs());
  DevicePool pool = DevicePool::upload(device, packed);
  const auto run = launch_lb1_kernel(device, dev_data, pool, 128);
  EXPECT_EQ(fields_of(run), golden) << to_string(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, FlatKernelGolden,
    ::testing::Values(
        std::make_pair(PlacementPolicy::kAllGlobal,
                       RunFields{3368490, 300, 0, 0, 0, 0,
                                 1307800, 68490, 0, 0, 5009600,
                                 9754680, 11747840, 384, 384, 3}),
        std::make_pair(PlacementPolicy::kSharedJmPtm,
                       RunFields{929490, 300, 2451600, 12600, 0, 0,
                                 1307800, 68490, 0, 0, 5009600,
                                 9754680, 11747840, 384, 384, 3}),
        std::make_pair(PlacementPolicy::kSharedJm,
                       RunFields{2239890, 300, 1140000, 11400, 0, 0,
                                 1307800, 68490, 0, 0, 5009600,
                                 9754680, 11747840, 384, 384, 3}),
        std::make_pair(PlacementPolicy::kSharedPtm,
                       RunFields{2058090, 300, 1311600, 1200, 0, 0,
                                 1307800, 68490, 0, 0, 5009600,
                                 9754680, 11747840, 384, 384, 3}),
        std::make_pair(PlacementPolicy::kAuto,
                       RunFields{28250, 300, 3365500, 25260, 0, 0,
                                 1307800, 68490, 0, 0, 5009600,
                                 9754680, 11747840, 384, 384, 3})));

/// Drives a DeviceResidentPool straight from the engine and sums the
/// KernelRun of every launch (GpuBoundEvaluator keeps only the counters).
class RecordingResidentEvaluator final : public core::BoundEvaluator,
                                         public core::ResidentPool {
 public:
  RecordingResidentEvaluator(const fsp::Instance& inst,
                             const fsp::LowerBoundData& data,
                             DeviceResidentPool& pool)
      : inst_(&inst), data_(&data), pool_(&pool) {}

  /// The engine bounds only the root this way; it stays off the device.
  void evaluate(std::span<core::Subproblem> batch) override {
    for (core::Subproblem& sp : batch) {
      sp.lb = fsp::lb1_from_prefix(*inst_, *data_, sp.prefix());
    }
  }
  core::ResidentPool* resident_pool() override { return this; }
  std::string name() const override { return "recording-resident"; }
  const core::EvalLedger& ledger() const override { return ledger_; }

  void iterate(fsp::Time ub, std::span<core::ResidentGroup> groups) override {
    ResidentIterationIo io;
    pool_->iterate(ub, groups, io);
    total.counters += io.run.counters;
    total.work_units_sum += io.run.work_units_sum;
    total.work_units_warp_max += io.run.work_units_warp_max;
    total.threads_executed += io.run.threads_executed;
    total.threads_logical += io.run.threads_logical;
    total.blocks_executed += io.run.blocks_executed;
    ++launches;
  }
  void release(std::uint32_t ticket) override { pool_->release(ticket); }
  core::ResidentPoolStats shard_stats() const override {
    return pool_->stats();
  }

  gpusim::KernelRun total;
  std::uint64_t launches = 0;

 private:
  const fsp::Instance* inst_;
  const fsp::LowerBoundData* data_;
  DeviceResidentPool* pool_;
  core::EvalLedger ledger_;
};

// The resident (gpu-sim) leg of the 20x20 offload workload: ta021,
// best-first, batch 256, NEH incumbent, 6000 branched nodes, automatic
// placement at the recommended block size.
TEST(ResidentTa021Golden, BudgetedRunCountersArePinned) {
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  ThreadPool host(2);
  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050(), &host);
  const PlacementPlan plan =
      make_placement_plan(PlacementPolicy::kAuto, data, device.spec());
  const DeviceLbData dev_data(device, data, plan);
  ResidentPoolConfig config;
  config.block_threads = recommended_block_threads(plan, device.spec());
  DeviceResidentPool pool(device, dev_data, config);
  RecordingResidentEvaluator eval(inst, data, pool);

  core::EngineOptions options;
  options.strategy = core::SelectionStrategy::kBestFirst;
  options.batch_size = 256;
  options.initial_ub = fsp::neh(inst).makespan;
  options.node_budget = 6000;
  core::BBEngine engine(inst, data, eval, options);
  const core::SolveResult result = engine.solve();

  EXPECT_EQ(result.stats.branched, 6000u);
  EXPECT_EQ(result.stats.evaluated, 89993u);
  EXPECT_EQ(eval.launches, 343u);
  EXPECT_EQ(fields_of(eval.total),
            (RunFields{9850108, 3779706, 1152986350, 5565620, 0, 0, 379030660,
                       8597796, 0, 0, 1476205460, 3024884460, 3291241984,
                       169216, 169216, 661}));
}

}  // namespace
}  // namespace fsbb::gpubb
