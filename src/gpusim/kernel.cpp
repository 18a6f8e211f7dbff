#include "gpusim/kernel.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace fsbb::gpusim {

SimDevice::SimDevice(DeviceSpec spec, ThreadPool* pool)
    : spec_(std::move(spec)), pool_(pool) {
  spec_.validate();
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>();
    pool_ = owned_pool_.get();
  }
}

KernelRun SimDevice::run_blocks(const LaunchConfig& config, int blocks_to_run,
                                const KernelBody& body,
                                const BlockPrologue& prologue, bool in_order) {
  FSBB_CHECK_MSG(config.grid_blocks >= 1, "empty grid");
  FSBB_CHECK_MSG(config.block_threads >= 1 &&
                     config.block_threads <= spec_.max_threads_per_block,
                 "invalid block size");
  FSBB_CHECK(blocks_to_run >= 1 && blocks_to_run <= config.grid_blocks);

  // One counter set per worker (+1 for the caller, which participates),
  // each on its own cache line: workers bump them on every counted access.
  struct alignas(64) WorkerState {
    AccessCounters counters;
    std::uint64_t work_sum = 0;
    std::uint64_t warp_max_sum = 0;
  };
  std::vector<WorkerState> per_worker(pool_->thread_count() + 1);
  const int warp = spec_.warp_size;
  const auto warps_per_block =
      static_cast<std::size_t>((config.block_threads + warp - 1) / warp);
  const std::size_t units =
      static_cast<std::size_t>(blocks_to_run) * warps_per_block;

  // Unit u is warp (u % warps_per_block) of block (u / warps_per_block);
  // units in increasing order are the grid's lanes in global order.
  const auto run_units = [&](std::size_t lo, std::size_t hi,
                             std::size_t worker) {
    WorkerState& state = per_worker[worker];
    AccessCounters& counters = state.counters;
    for (std::size_t u = lo; u < hi; ++u) {
      const auto block_idx = static_cast<int>(u / warps_per_block);
      const int w = static_cast<int>(u % warps_per_block) * warp;
      if (w == 0 && prologue) prologue(block_idx, counters);
      // Track the busiest lane of the warp for the lockstep-divergence
      // measurement.
      std::uint64_t lane_max = 0;
      const int lanes = std::min(warp, config.block_threads - w);
      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t before = counters.work_units();
        ThreadCtx ctx(block_idx, w + lane, config.block_threads, counters);
        body(ctx);
        const std::uint64_t delta = counters.work_units() - before;
        state.work_sum += delta;
        lane_max = std::max(lane_max, delta);
      }
      state.warp_max_sum += lane_max * static_cast<std::uint64_t>(lanes);
    }
  };
  if (in_order) {
    run_units(0, units, pool_->thread_count());
  } else {
    // One warp per claim: a launch is often one full block plus a ragged
    // one, so block-granular claims would leave all but one thread idle.
    pool_->parallel_for(0, units, run_units, /*chunks=*/units);
  }

  KernelRun run;
  for (const WorkerState& state : per_worker) {
    run.counters += state.counters;
    run.work_units_sum += state.work_sum;
    run.work_units_warp_max += state.warp_max_sum;
  }
  run.blocks_executed = blocks_to_run;
  run.threads_executed =
      static_cast<std::int64_t>(blocks_to_run) * config.block_threads;
  run.threads_logical = config.total_threads();
  return run;
}

KernelRun SimDevice::launch(const LaunchConfig& config, const KernelBody& body,
                            const BlockPrologue& prologue) {
  return run_blocks(config, config.grid_blocks, body, prologue,
                    /*in_order=*/false);
}

KernelRun SimDevice::launch_in_order(const LaunchConfig& config,
                                     const KernelBody& body,
                                     const BlockPrologue& prologue) {
  return run_blocks(config, config.grid_blocks, body, prologue,
                    /*in_order=*/true);
}

KernelRun SimDevice::launch_sampled(const LaunchConfig& config,
                                    std::int64_t max_threads,
                                    const KernelBody& body,
                                    const BlockPrologue& prologue) {
  FSBB_CHECK_MSG(max_threads >= 1, "sample must allow at least one thread");
  int blocks = static_cast<int>(max_threads / config.block_threads);
  blocks = std::max(1, std::min(blocks, config.grid_blocks));
  return run_blocks(config, blocks, body, prologue, /*in_order=*/false);
}

}  // namespace fsbb::gpusim
