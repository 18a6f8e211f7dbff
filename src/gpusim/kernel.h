// Functional kernel execution over simulated thread grids.
//
// A kernel is a C++ callable invoked once per simulated thread with a
// ThreadCtx that identifies the thread and counts its memory traffic.
//
// Execution contract:
//   * launch() / launch_sampled() fan a grid out over a host thread pool
//     one WARP at a time: the (block, warp) units of a launch — including
//     the warps of a single block — run concurrently on different host
//     threads. One warp's lanes always run in lane order on one host
//     thread, which is what makes the per-warp lockstep-divergence maximum
//     exact. A block's prologue runs on the thread that runs its warp 0,
//     just before that warp. Kernel bodies must therefore only write
//     per-thread outputs (as a real CUDA kernel without atomics would).
//   * launch_in_order() runs every lane of the grid in global thread order
//     on the calling thread. It is for kernels that model device-shared
//     words (an incumbent, a work quota) with plain host captures and
//     whose results depend on lanes observing each other in order.
// Counters are kept per host worker and reduced afterwards, so every
// KernelRun is deterministic and independent of the pool size.
//
// Two grid extents:
//   * launch() / launch_in_order() — every logical thread runs (functional
//                         results are complete; engines use these).
//   * launch_sampled()  — only a prefix of the blocks runs; counters are
//                         per-executed-thread averages for the timing model.
//                         Outputs for non-executed threads are untouched.
//                         Benchmark harnesses use this to price paper-scale
//                         pools without paying paper-scale compute.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/threadpool.h"
#include "gpusim/counters.h"
#include "gpusim/device_spec.h"
#include "gpusim/memory.h"

namespace fsbb::gpusim {

/// Kernel launch geometry (the paper's "pool size = blocks x threads").
struct LaunchConfig {
  int grid_blocks = 1;
  int block_threads = 256;

  std::int64_t total_threads() const {
    return static_cast<std::int64_t>(grid_blocks) * block_threads;
  }
};

/// Per-thread execution context handed to kernel bodies.
class ThreadCtx {
 public:
  ThreadCtx(int block_idx, int thread_idx, int block_dim,
            AccessCounters& counters)
      : block_idx_(block_idx), thread_idx_(thread_idx), block_dim_(block_dim),
        counters_(&counters) {}

  int block_idx() const { return block_idx_; }
  int thread_idx() const { return thread_idx_; }
  int block_dim() const { return block_dim_; }
  std::int64_t global_idx() const {
    return static_cast<std::int64_t>(block_idx_) * block_dim_ + thread_idx_;
  }

  /// Counted load through a tagged view.
  template <typename T>
  T ld(const DeviceView<T>& v, std::size_t i) {
    FSBB_ASSERT(i < v.size);
    counters_->add_load(v.space);
    return v.data[i];
  }

  /// Counted store through a tagged view.
  template <typename T>
  void st(const DeviceMutView<T>& v, std::size_t i, T value) {
    FSBB_ASSERT(i < v.size);
    counters_->add_store(v.space);
    v.data[i] = value;
  }

  /// Bulk accounting for work not expressed through views (e.g. per-thread
  /// scratch in local memory, or arithmetic).
  void add_loads(MemSpace s, std::uint64_t n) { counters_->add_load(s, n); }
  void add_stores(MemSpace s, std::uint64_t n) { counters_->add_store(s, n); }
  void add_ops(std::uint64_t n) { counters_->add_ops(n); }

  AccessCounters& counters() { return *counters_; }

 private:
  int block_idx_;
  int thread_idx_;
  int block_dim_;
  AccessCounters* counters_;
};

/// What a launch executed and counted.
struct KernelRun {
  AccessCounters counters;            ///< summed over executed threads
  std::int64_t threads_executed = 0;  ///< functionally run
  std::int64_t threads_logical = 0;   ///< grid * block
  int blocks_executed = 0;
  std::uint64_t work_units_sum = 0;       ///< per-thread work, summed
  std::uint64_t work_units_warp_max = 0;  ///< sum over warps of 32 * max lane

  /// Lockstep penalty: >= 1; the ratio between warp-serialized work (every
  /// lane pays for the slowest) and ideal per-thread work.
  double divergence_factor() const {
    return work_units_sum > 0 ? static_cast<double>(work_units_warp_max) /
                                    static_cast<double>(work_units_sum)
                              : 1.0;
  }

  /// executed / logical (1.0 for full launches).
  double sample_fraction() const {
    return threads_logical > 0
               ? static_cast<double>(threads_executed) / threads_logical
               : 0.0;
  }

  /// Per-thread average accesses of one space (loads + stores).
  double per_thread(MemSpace s) const {
    return threads_executed > 0
               ? static_cast<double>(counters.of(s).total()) / threads_executed
               : 0.0;
  }
  double per_thread_ops() const {
    return threads_executed > 0
               ? static_cast<double>(counters.arithmetic_ops) / threads_executed
               : 0.0;
  }
};

/// Kernel body: invoked once per simulated thread.
using KernelBody = std::function<void(ThreadCtx&)>;

/// Block prologue: invoked once per simulated block before its threads, with
/// the counters of thread 0 (models per-block one-time work such as staging
/// tables into shared memory).
using BlockPrologue = std::function<void(int block_idx, AccessCounters&)>;

/// A simulated device instance executing kernels on a host thread pool.
class SimDevice {
 public:
  /// `pool` may be shared with other components; if null an internal pool
  /// with hardware concurrency is created.
  explicit SimDevice(DeviceSpec spec, ThreadPool* pool = nullptr);

  const DeviceSpec& spec() const { return spec_; }

  /// Allocates a simulated buffer. Global/constant allocations count
  /// against the device capacity until the buffer is destroyed.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count, MemSpace space) {
    if (space == MemSpace::kGlobal || space == MemSpace::kConstant) {
      const std::size_t now =
          allocated_bytes_->fetch_add(count * sizeof(T),
                                      std::memory_order_relaxed) +
          count * sizeof(T);
      FSBB_CHECK_MSG(now <= spec_.global_mem_bytes,
                     "simulated device memory exhausted");
      return DeviceBuffer<T>(count, space, allocated_bytes_);
    }
    return DeviceBuffer<T>(count, space);
  }

  /// Claims capacity without host backing (see DeviceReservation).
  DeviceReservation reserve(std::size_t bytes) {
    const std::size_t now =
        allocated_bytes_->fetch_add(bytes, std::memory_order_relaxed) + bytes;
    FSBB_CHECK_MSG(now <= spec_.global_mem_bytes,
                   "simulated device memory exhausted");
    return DeviceReservation(bytes, allocated_bytes_);
  }

  std::size_t allocated_bytes() const {
    return allocated_bytes_->load(std::memory_order_relaxed);
  }

  /// Runs every thread of the grid, warps concurrently.
  KernelRun launch(const LaunchConfig& config, const KernelBody& body,
                   const BlockPrologue& prologue = nullptr);

  /// Runs every thread of the grid on the calling thread, in global thread
  /// order (block by block, lane by lane). Counters equal launch()'s.
  KernelRun launch_in_order(const LaunchConfig& config, const KernelBody& body,
                            const BlockPrologue& prologue = nullptr);

  /// Runs only the first blocks covering at most `max_threads` threads
  /// (at least one block). Counters then describe a sample.
  KernelRun launch_sampled(const LaunchConfig& config, std::int64_t max_threads,
                           const KernelBody& body,
                           const BlockPrologue& prologue = nullptr);

 private:
  KernelRun run_blocks(const LaunchConfig& config, int blocks_to_run,
                       const KernelBody& body, const BlockPrologue& prologue,
                       bool in_order);

  DeviceSpec spec_;
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::shared_ptr<std::atomic<std::size_t>> allocated_bytes_ =
      std::make_shared<std::atomic<std::size_t>>(0);
};

}  // namespace fsbb::gpusim
