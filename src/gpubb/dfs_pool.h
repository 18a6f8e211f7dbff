// Per-thread device-side iterative DFS over compact IVM-style nodes — the
// third --gpu-pool mode (Gmys et al., arXiv:2012.09511; the Layer-stack
// exemplar of SNIPPETS.md).
//
// The resident pool (PR 5) still advances the frontier one level per
// offload: every deepening pays descriptor traffic, ticket bookkeeping
// and a kernel launch. Here each simulated GPU thread owns a whole
// subtree and runs an explicit fixed-depth iterative DFS over it — select,
// branch and bound fused in one kernel, the shared incumbent checked
// between expansions, and work surfacing only at subtree exhaustion or
// when the host-initiated expansion quota recalls the lanes.
//
// A live node costs O(1)–O(m) device memory instead of a full payload.
// The per-lane "IvmNode" encoding, layered one record per tree level:
//
//   perm[n]        one working permutation per LANE (not per node): the
//                  branching rule is a position swap, which is self-
//                  inverse, so descending applies swap(d, d+i) and
//                  backtracking undoes it — the interval/factoradic trick
//                  of IVM in permutation-swap form;
//   IvmNode {      per level d:
//     cursor,        next sibling to scan (counts DOWN — the serial
//                    engine's LIFO pops children last-first),
//     active }       sibling index currently applied on the path;
//   fronts[d][m]   machine completion fronts of the length-d prefix,
//                  extended O(m) on descent (never replayed);
//   clb[d][i]      child lower bounds, kDead marking insert-pruned
//                  children so the scan skips them silently;
//   rows[d][s][i]  each machine couple's Johnson order compacted to the
//                  level's free jobs, every entry PRE-GATHERED into a
//                  packed {job, ptm(q,k), ptm(q,l), lm(q,s)} record —
//                  the bounding sweep then touches only thread-local
//                  memory, no global table gathers in the inner loop
//                  (the raw-speed half of this mode's win; the other
//                  half is eliminating the per-level launch+transfer).
//
// Bit-identity with cpu-serial (batch_size 1, depth-first): the pool runs
// its lanes through SimDevice::launch_in_order, which executes them
// strictly in lane order on one host thread, and drives its grid one
// block at a time in block order (the same executed-vs-priced split as
// launch_sampled: the timing model sees the whole grid, the functional
// execution stays sequential), so lanes explore their subtrees
// sequentially against one shared incumbent — exactly the order a serial
// engine pops a LIFO stack that happens to hold the lanes' roots
// top-first. Every elimination (pop-time lazy, insert-time) fires at the
// same point with the same bound, so EngineStats and the incumbent stream
// match counter-for-counter — fuzzed in GpuDfsVsSerialFuzz. A real device
// would relax this to monotone-but-reordered incumbents; the simulator's
// determinism is what lets the fuzz pin the stronger property.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "gpubb/device_lb_data.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"
#include "gpusim/occupancy.h"

namespace fsbb::gpubb {

/// Geometry and recall policy of the DFS pool.
struct DfsPoolConfig {
  /// Subtree lanes per launch (one device thread each, spread over a grid
  /// of `block_threads`-sized blocks). 0 = default (one block per SM of
  /// the recommended block size — the owning evaluator fills this in);
  /// clamped to the lane-state memory budget.
  std::size_t max_lanes = 0;
  /// Threads per block of the DFS grid. 0 = default (the evaluator's
  /// recommended LB-kernel block size); clamped to the device cap.
  int block_threads = 0;
  /// Expansions (branched nodes) per launch before the lanes are
  /// interrupted and live work surfaces back to the host — the recall
  /// granularity for stop checks and pool rebalancing. 0 = default
  /// (32 per lane, the historical 8192 at 256 lanes).
  std::uint64_t launch_expansions = 0;
};

/// One launch's bus traffic + kernel run, for the evaluator's ledgers.
struct DfsLaunchIo {
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  gpusim::KernelRun run;
};

/// The device-side DFS pool. Lane state is claimed from simulated device
/// memory once (per-thread local state lives in device DRAM on a real
/// card too); launches are priced by the owning evaluator from DfsLaunchIo.
class DeviceDfsPool {
 public:
  DeviceDfsPool(gpusim::SimDevice& device, const DeviceLbData& data,
                DfsPoolConfig config = {});

  /// Lanes a single launch can run.
  std::size_t max_lanes() const { return lanes_; }
  /// Expansion quota per launch.
  std::uint64_t launch_expansions() const { return launch_expansions_; }
  /// Device bytes one lane's full-depth DFS state occupies (perm + fronts
  /// + packed couple rows + child bounds + cursors + couple cache).
  std::size_t lane_state_bytes() const { return lane_state_bytes_; }

  /// Runs one fused select/branch/bound DFS launch (core::SubtreeDfs
  /// semantics; the owning evaluator implements the seam and prices the
  /// traffic). `out` receives counters/events/surfaced work, `io` the
  /// modeled bytes and the kernel run.
  void run_subtrees(fsp::Time ub, std::span<const core::DfsRoot> roots,
                    std::uint64_t max_expansions, core::DfsLaunchResult& out,
                    DfsLaunchIo& io);

 private:
  gpusim::SimDevice* device_;
  const DeviceLbData* data_;
  std::size_t lanes_ = 0;
  int block_threads_ = 0;
  std::uint64_t launch_expansions_ = 0;
  std::size_t lane_state_bytes_ = 0;

  /// The claimed lane-state arena (counts against device capacity; the
  /// functional state is simulated thread-local and accounted kLocal, so
  /// the claim is a capacity reservation, not a host allocation).
  gpusim::DeviceReservation lane_state_;
  // Root descriptors shipped down each launch (grown once, reused).
  gpusim::DeviceBuffer<std::uint8_t> root_perms_;    ///< lanes x jobs
  gpusim::DeviceBuffer<std::uint16_t> root_depths_;  ///< lanes
  gpusim::DeviceBuffer<std::int32_t> root_lbs_;      ///< lanes
};

/// Static resource demands of the DFS kernel for the occupancy model. The
/// register figure (40/thread: DFS cursors, row/front base pointers and
/// the sweep accumulators on top of the flat kernel's 26) is an input to
/// the model, like the paper's reported 26 for its compiled LB kernel.
gpusim::KernelResources dfs_kernel_resources(const DeviceLbData& data,
                                             int block_threads);

}  // namespace fsbb::gpubb
