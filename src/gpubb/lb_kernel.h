// The LB1 bounding kernel (paper Fig. 3): one simulated GPU thread bounds
// one sub-problem. The arithmetic is the shared lb1_evaluate template, so
// kernel results are bit-identical to the CPU evaluator by construction —
// and tested to be.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/subproblem.h"
#include "fsp/lb1.h"
#include "gpubb/device_lb_data.h"
#include "gpusim/kernel.h"
#include "gpusim/occupancy.h"

namespace fsbb::gpubb {

// --- whole-block pool geometry -------------------------------------------
//
// The paper's pool is always a whole number of thread blocks; the
// autotuner sweeps and the real packs/launches must agree on that rounding
// or the tuned pool size prices a different launch than the engine runs.
// These three helpers are the single source of truth for it.

/// Blocks needed to cover `nodes` (the launch grid; >= 1).
inline int blocks_for(std::size_t nodes, int block_threads) {
  const auto bt = static_cast<std::size_t>(block_threads);
  const std::size_t blocks = (nodes + bt - 1) / bt;
  return static_cast<int>(blocks == 0 ? 1 : blocks);
}

/// Whole-block slot capacity covering `nodes`: blocks_for * block_threads.
inline std::size_t block_aligned_capacity(std::size_t nodes,
                                          int block_threads) {
  return static_cast<std::size_t>(blocks_for(nodes, block_threads)) *
         static_cast<std::size_t>(block_threads);
}

/// Largest whole-block pool not exceeding `nodes` (at least one block) —
/// the autotuner's sweep points and sample truncation.
inline std::size_t block_aligned_pool_size(std::size_t nodes,
                                           int block_threads) {
  const auto bt = static_cast<std::size_t>(block_threads);
  const std::size_t floored = nodes / bt * bt;
  return floored == 0 ? bt : floored;
}

/// Host-side packed pool: the bytes an offload iteration ships to the card.
/// Permutations are u8 (n <= 255 on the GPU path), depths u16.
struct PackedPool {
  int jobs = 0;
  int count = 0;     ///< real nodes
  int capacity = 0;  ///< allocated slots (== count, or the next whole block)
  std::vector<std::uint8_t> perms;   ///< capacity x jobs, row-major
  std::vector<std::uint16_t> depths; ///< capacity

  /// Bytes shipped down: the whole aligned pool, exactly what the
  /// autotuner's sweep prices for the same capacity.
  std::size_t h2d_bytes() const {
    return perms.size() * sizeof(std::uint8_t) +
           depths.size() * sizeof(std::uint16_t);
  }
  std::size_t d2h_bytes() const {
    return static_cast<std::size_t>(capacity) * sizeof(std::int32_t);
  }

  /// Packs `batch`. block_threads > 0 rounds the slot capacity up to whole
  /// blocks via block_aligned_capacity (padding slots are zeroed), so a
  /// real pack and a pool-size sweep of the same batch agree byte-for-byte;
  /// 0 packs exactly batch.size() slots.
  static PackedPool pack(std::span<const core::Subproblem> batch, int jobs,
                         int block_threads = 0);

  /// Same packing, but into this object's existing buffers: the
  /// evaluator's per-offload host staging reuses one PackedPool so steady
  /// state allocates nothing (resize only grows capacity on the first,
  /// largest batch).
  void repack(std::span<const core::Subproblem> batch, int jobs,
              int block_threads = 0);
};

/// Simulated-device mirror of a packed pool plus the LB output buffer.
struct DevicePool {
  gpusim::DeviceBuffer<std::uint8_t> perms;
  gpusim::DeviceBuffer<std::uint16_t> depths;
  gpusim::DeviceBuffer<std::int32_t> lbs;
  int jobs = 0;
  int count = 0;

  static DevicePool upload(gpusim::SimDevice& device, const PackedPool& pool);
};

/// Counted accessors over the packed device tables: every read goes through
/// the ThreadCtx and is charged to its table's placed memory space. The
/// kernels use it for the table reads outside the LB1 sweep (prefix replay,
/// the DFS lanes' per-couple caches and row gathers). Widening casts
/// reproduce exactly the host values.
class DeviceLb1Provider {
 public:
  DeviceLb1Provider(gpusim::ThreadCtx& ctx, const DeviceLbData& d)
      : ctx_(&ctx), d_(&d) {}

  int jobs() const { return d_->jobs(); }
  int machines() const { return d_->machines(); }
  int pairs() const { return d_->pairs(); }

  fsp::JobId jm(int pair, int pos) const {
    return static_cast<fsp::JobId>(ctx_->ld(
        d_->jm(), static_cast<std::size_t>(pair) * jobs() +
                      static_cast<std::size_t>(pos)));
  }
  fsp::Time lm(int job, int pair) const {
    return static_cast<fsp::Time>(ctx_->ld(
        d_->lm(), static_cast<std::size_t>(job) * pairs() +
                      static_cast<std::size_t>(pair)));
  }
  fsp::Time ptm(int job, int machine) const {
    return static_cast<fsp::Time>(ctx_->ld(
        d_->ptm(), static_cast<std::size_t>(job) * machines() +
                       static_cast<std::size_t>(machine)));
  }
  fsp::Time rm(int machine) const {
    return ctx_->ld(d_->rm(), static_cast<std::size_t>(machine));
  }
  fsp::Time qm(int machine) const {
    return ctx_->ld(d_->qm(), static_cast<std::size_t>(machine));
  }
  int mm_k(int pair) const {
    return ctx_->ld(d_->mm(), 2 * static_cast<std::size_t>(pair));
  }
  int mm_l(int pair) const {
    return ctx_->ld(d_->mm(), 2 * static_cast<std::size_t>(pair) + 1);
  }

 private:
  gpusim::ThreadCtx* ctx_;
  const DeviceLbData* d_;
};

/// lb1_evaluate provider over the packed device tables' storage, shared by
/// the flat repack kernel and the resident branch+bound kernel
/// (gpubb/resident_pool.h). It counts nothing: the kernels run the sweep
/// through it and then charge the sweep's table loads in closed form with
/// charge_lb1_sweep. Widening casts reproduce exactly the host values.
class RawLb1Provider {
 public:
  explicit RawLb1Provider(const DeviceLbData& d)
      : jobs_(d.jobs()), machines_(d.machines()), pairs_(d.pairs()),
        ptm_(d.ptm().data), lm_(d.lm().data), jm_(d.jm().data),
        rm_(d.rm().data), qm_(d.qm().data), mm_(d.mm().data) {}

  int jobs() const { return jobs_; }
  int machines() const { return machines_; }
  int pairs() const { return pairs_; }

  fsp::JobId jm(int pair, int pos) const {
    return static_cast<fsp::JobId>(jm_[pair * jobs_ + pos]);
  }
  fsp::Time lm(int job, int pair) const {
    return static_cast<fsp::Time>(lm_[job * pairs_ + pair]);
  }
  fsp::Time ptm(int job, int machine) const {
    return static_cast<fsp::Time>(ptm_[job * machines_ + machine]);
  }
  fsp::Time rm(int machine) const { return rm_[machine]; }
  fsp::Time qm(int machine) const { return qm_[machine]; }
  int mm_k(int pair) const { return mm_[2 * pair]; }
  int mm_l(int pair) const { return mm_[2 * pair + 1]; }

 private:
  int jobs_;
  int machines_;
  int pairs_;
  const std::uint8_t* ptm_;
  const std::uint16_t* lm_;
  const std::uint8_t* jm_;
  const std::int32_t* rm_;
  const std::int32_t* qm_;
  const std::int16_t* mm_;
};

/// Charges `ctx` the table loads one lb1_evaluate sweep performs on a node
/// with `free_jobs` unscheduled jobs, each in its table's placed memory
/// space. Per machine couple the sweep reads mm twice, rm twice, the whole
/// Johnson row (n jm entries) and qm once, plus ptm twice and lm once per
/// unscheduled job — with p couples and f free jobs: mm 2p, rm 2p, jm n*p,
/// ptm 2*f*p, lm f*p, qm p. Exactly what counting every access records.
void charge_lb1_sweep(gpusim::ThreadCtx& ctx, const DeviceLbData& d,
                      int free_jobs);

/// Hard caps of the packed kernels' per-thread scratch (local memory).
inline constexpr int kKernelMaxJobs = 256;
inline constexpr int kKernelMaxMachines = 64;

/// Launches the bounding kernel over `pool` on `device` and returns the run
/// counters. If `sample_max_threads` > 0, only a prefix of the blocks is
/// executed (timing-model sampling); otherwise every node is bounded.
gpusim::KernelRun launch_lb1_kernel(gpusim::SimDevice& device,
                                    const DeviceLbData& data, DevicePool& pool,
                                    int block_threads,
                                    std::int64_t sample_max_threads = 0);

/// Static kernel resource demands for the occupancy calculator. The
/// register count (26/thread) is the figure the paper reports for its
/// compiled kernel; it is an input to the model, not something a host
/// simulation could derive.
gpusim::KernelResources lb1_kernel_resources(const DeviceLbData& data,
                                             int block_threads);

/// Picks the LB kernel's block size for a placement. Starts from `base`
/// (the paper's 256) and doubles while a single block monopolizes the SM
/// with fewer than 16 resident warps — the adjustment that recovers the
/// paper's reported "16 active warps" for the 200x20 shared placement,
/// where a 42 KB block under 256 threads would otherwise idle at 8 warps.
int recommended_block_threads(const PlacementPlan& plan,
                              const gpusim::DeviceSpec& spec, int base = 256);

}  // namespace fsbb::gpubb
