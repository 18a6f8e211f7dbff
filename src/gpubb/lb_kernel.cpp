#include "gpubb/lb_kernel.h"

#include <algorithm>

#include "common/check.h"

namespace fsbb::gpubb {

PackedPool PackedPool::pack(std::span<const core::Subproblem> batch, int jobs,
                            int block_threads) {
  PackedPool p;
  p.repack(batch, jobs, block_threads);
  return p;
}

void PackedPool::repack(std::span<const core::Subproblem> batch, int jobs_in,
                        int block_threads) {
  FSBB_CHECK_MSG(jobs_in <= 255, "GPU pool packs permutations as u8");
  jobs = jobs_in;
  count = static_cast<int>(batch.size());
  capacity = block_threads > 0
                 ? static_cast<int>(
                       block_aligned_capacity(batch.size(), block_threads))
                 : count;
  perms.resize(static_cast<std::size_t>(capacity) *
               static_cast<std::size_t>(jobs_in));
  depths.resize(static_cast<std::size_t>(capacity));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::Subproblem& sp = batch[i];
    FSBB_CHECK(sp.jobs() == jobs_in);
    for (int j = 0; j < jobs_in; ++j) {
      perms[i * static_cast<std::size_t>(jobs_in) + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(sp.perm[static_cast<std::size_t>(j)]);
    }
    depths[i] = static_cast<std::uint16_t>(sp.depth);
  }
  // Only the block-alignment padding tail is zeroed (the kernel's idx
  // guard never reads it; zeroing keeps the shipped bytes deterministic)
  // — live rows are overwritten above, so steady state stays rewrite-only.
  std::fill(perms.begin() + static_cast<std::ptrdiff_t>(
                                batch.size() *
                                static_cast<std::size_t>(jobs_in)),
            perms.end(), std::uint8_t{0});
  std::fill(depths.begin() + static_cast<std::ptrdiff_t>(batch.size()),
            depths.end(), std::uint16_t{0});
}

DevicePool DevicePool::upload(gpusim::SimDevice& device,
                              const PackedPool& pool) {
  DevicePool d;
  d.jobs = pool.jobs;
  d.count = pool.count;
  d.perms = device.alloc<std::uint8_t>(pool.perms.size(),
                                       gpusim::MemSpace::kGlobal);
  d.depths = device.alloc<std::uint16_t>(pool.depths.size(),
                                         gpusim::MemSpace::kGlobal);
  d.lbs = device.alloc<std::int32_t>(static_cast<std::size_t>(pool.capacity),
                                     gpusim::MemSpace::kGlobal);
  std::copy(pool.perms.begin(), pool.perms.end(), d.perms.host_span().begin());
  std::copy(pool.depths.begin(), pool.depths.end(),
            d.depths.host_span().begin());
  return d;
}

int recommended_block_threads(const PlacementPlan& plan,
                              const gpusim::DeviceSpec& spec, int base) {
  int bt = base;
  for (;;) {
    const gpusim::KernelResources res{bt, 26, plan.shared_bytes_per_block};
    const auto occ = gpusim::compute_occupancy(spec, plan.smem_config, res);
    if (occ.blocks_per_sm > 1 || occ.active_warps >= 16 ||
        bt * 2 > spec.max_threads_per_block) {
      return bt;
    }
    const gpusim::KernelResources doubled{bt * 2, 26,
                                          plan.shared_bytes_per_block};
    const auto occ2 = gpusim::compute_occupancy(spec, plan.smem_config, doubled);
    if (occ2.active_warps <= occ.active_warps) return bt;
    bt *= 2;
  }
}

gpusim::KernelResources lb1_kernel_resources(const DeviceLbData& data,
                                             int block_threads) {
  gpusim::KernelResources r;
  r.block_threads = block_threads;
  // 26 registers/thread: the paper's reported figure for its nvcc-compiled
  // LB kernel (§IV-B) — the occupancy-limiting factor of the global-memory
  // configuration.
  r.registers_per_thread = 26;
  r.shared_bytes_per_block = data.plan().shared_bytes_per_block;
  return r;
}

void charge_lb1_sweep(gpusim::ThreadCtx& ctx, const DeviceLbData& d,
                      int free_jobs) {
  const auto p = static_cast<std::uint64_t>(d.pairs());
  const auto n = static_cast<std::uint64_t>(d.jobs());
  const auto f = static_cast<std::uint64_t>(free_jobs);
  ctx.add_loads(d.mm().space, 2 * p);
  ctx.add_loads(d.rm().space, 2 * p);
  ctx.add_loads(d.jm().space, n * p);
  ctx.add_loads(d.ptm().space, 2 * f * p);
  ctx.add_loads(d.lm().space, f * p);
  ctx.add_loads(d.qm().space, p);
}

gpusim::KernelRun launch_lb1_kernel(gpusim::SimDevice& device,
                                    const DeviceLbData& data, DevicePool& pool,
                                    int block_threads,
                                    std::int64_t sample_max_threads) {
  FSBB_CHECK(pool.jobs == data.jobs());
  FSBB_CHECK_MSG(
      data.jobs() <= kKernelMaxJobs && data.machines() <= kKernelMaxMachines,
      "instance exceeds kernel scratch caps");

  const int grid_blocks =
      blocks_for(static_cast<std::size_t>(pool.count), block_threads);
  const gpusim::LaunchConfig config{grid_blocks, block_threads};

  const auto perms = pool.perms.view();
  const auto depths = pool.depths.view();
  const auto lbs = pool.lbs.mut_view();
  const DeviceLbData* d = &data;
  const RawLb1Provider tables(data);
  const int n = data.jobs();
  const int m = data.machines();
  const int count = pool.count;

  auto body = [d, tables, perms, depths, lbs, n, m,
               count](gpusim::ThreadCtx& ctx) {
    const std::int64_t idx = ctx.global_idx();
    if (idx >= count) return;

    // --- unpack the node: replay the prefix to rebuild machine fronts ---
    const int depth =
        ctx.ld(depths, static_cast<std::size_t>(idx));
    fsp::Time fronts[kKernelMaxMachines] = {};
    std::uint8_t scheduled[kKernelMaxJobs] = {};

    // Per-thread scratch lives in local memory; account its traffic.
    ctx.add_stores(gpusim::MemSpace::kLocal,
                   static_cast<std::uint64_t>(m) + static_cast<std::uint64_t>(n));

    const std::size_t perm_base = static_cast<std::size_t>(idx) *
                                  static_cast<std::size_t>(n);
    auto counted = DeviceLb1Provider(ctx, *d);
    for (int pos = 0; pos < depth; ++pos) {
      const auto job = static_cast<int>(
          ctx.ld(perms, perm_base + static_cast<std::size_t>(pos)));
      scheduled[job] = 1;
      ctx.add_stores(gpusim::MemSpace::kLocal, 1);
      fsp::Time prev = 0;
      for (int k = 0; k < m; ++k) {
        const fsp::Time start = std::max(prev, fronts[k]);
        prev = start + counted.ptm(job, k);
        fronts[k] = prev;
      }
      ctx.add_loads(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
      ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
      ctx.add_ops(static_cast<std::uint64_t>(m) * 2);
    }

    // --- the LB1 sweep itself (shared with the CPU path) ----------------
    const fsp::Time lb = fsp::lb1_evaluate(
        tables, std::span<const fsp::Time>(fronts, static_cast<std::size_t>(m)),
        std::span<const std::uint8_t>(scheduled, static_cast<std::size_t>(n)));
    charge_lb1_sweep(ctx, *d, n - depth);

    // Scratch reads inside the sweep (fronts twice per pair, the scheduled
    // mask once per Johnson entry) plus the comparison/accumulate ALU work.
    const auto pairs = static_cast<std::uint64_t>(d->pairs());
    ctx.add_loads(gpusim::MemSpace::kLocal,
                  pairs * (2 + static_cast<std::uint64_t>(n)));
    ctx.add_ops(pairs * (static_cast<std::uint64_t>(n) * 4 + 6));

    ctx.st(lbs, static_cast<std::size_t>(idx), static_cast<std::int32_t>(lb));
  };

  auto prologue = [d](int /*block*/, gpusim::AccessCounters& counters) {
    d->account_block_staging(counters);
  };

  if (sample_max_threads > 0) {
    return device.launch_sampled(config, sample_max_threads, body, prologue);
  }
  return device.launch(config, body, prologue);
}

}  // namespace fsbb::gpubb
