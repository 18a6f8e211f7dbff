// The branch-and-bound engine (paper §II-A, §III-A).
//
// One engine covers every execution mode of the paper through two knobs:
//
//   * batch_size == 1  →  the classic serial B&B: pop, branch, bound each
//     child immediately, prune or insert.
//   * batch_size == P  →  the GPU offload shape: pop/branch until P children
//     are pending, hand the whole pool to the BoundEvaluator at once
//     (CPU threads or the simulated GPU), then prune/insert the survivors.
//
// Selection and branching always run on the "CPU side"; the evaluator is
// the bounding operator of paper Fig. 3. Elimination happens twice: when a
// bounded child returns (lb >= UB → drop) and lazily at pop time (the UB
// may have improved since insertion).
//
// Branching is forward (extend the scheduled prefix) or bidirectional
// (EngineOptions::branching): a node then fixes a head and a tail, the
// evaluator bounds the children of both ends in one sibling batch, and the
// engine keeps the end choose_branch_end picks (a MinBranch variant).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/evaluator.h"
#include "core/pool.h"
#include "core/search_control.h"
#include "core/steal_stats.h"
#include "core/subproblem.h"
#include "fsp/instance.h"
#include "fsp/lb_data.h"

namespace fsbb::core {

/// Engine configuration.
struct EngineOptions {
  SelectionStrategy strategy = SelectionStrategy::kBestFirst;
  /// Children accumulated before one bounding batch (the paper's pool size).
  std::size_t batch_size = 1;
  /// Starting incumbent; if unset the engine seeds it with NEH.
  std::optional<Time> initial_ub;
  /// Stop after branching this many nodes (0 = unlimited).
  std::uint64_t node_budget = 0;
  /// Stop once the active pool holds at least this many nodes (0 = never).
  /// Used by the frozen-pool protocol to snapshot a large live pool.
  std::size_t freeze_pool_size = 0;
  /// Keep the unexplored pool in the result when stopping early.
  bool collect_pool_on_stop = false;
  /// Cooperative cancellation / deadline / progress block (not owned; may
  /// be null). Polled once per bounding batch, so cancellation and
  /// deadlines take effect within one batch.
  SearchControl* control = nullptr;
  /// Forward extends the head only. Bidirectional bounds the children of
  /// both ends of every node and keeps one end (choose_branch_end); it
  /// needs a sibling-batch LB1 host evaluator (SerialCpuEvaluator or
  /// ThreadedCpuEvaluator). The registry picks it for cpu-serial and
  /// cpu-threads under LB1; the device pools still branch forward.
  Branching branching = Branching::kForward;
};

/// Counters for every operator of the algorithm.
struct EngineStats {
  std::uint64_t branched = 0;    ///< nodes decomposed
  std::uint64_t generated = 0;   ///< children produced by branching
  /// Children through the bounding operator. Bidirectional branching
  /// bounds both ends' children and keeps one end's, so there evaluated
  /// runs about twice generated.
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;      ///< eliminated (at return or at pop)
  std::uint64_t leaves = 0;      ///< complete schedules reached
  std::uint64_t ub_updates = 0;  ///< incumbent improvements
  double wall_seconds = 0;       ///< total solve time
  /// Time inside the bounding operator (BoundEvaluator::evaluate and its
  /// sibling/resident seams). The threaded engine (cpu-steal) times each
  /// expansion's bounding loop per worker and reports the mean over
  /// workers, so bounding_fraction() stays in [0, 1].
  double bounding_seconds = 0;
  Time initial_ub = 0;

  double bounding_fraction() const {
    return wall_seconds > 0 ? bounding_seconds / wall_seconds : 0.0;
  }
};

/// Outcome of a solve.
struct SolveResult {
  Time best_makespan = std::numeric_limits<Time>::max();
  std::vector<JobId> best_permutation;  ///< empty if no schedule beat the UB
  bool proven_optimal = false;          ///< search space exhausted
  /// Why the solve returned; anything but kOptimal is an early stop with a
  /// valid partial incumbent.
  StopReason stop_reason = StopReason::kOptimal;
  EngineStats stats;
  /// Work-stealing traffic, for engines that shard their pool (else unset).
  std::optional<StealStats> steal;
  /// Per-shard occupancy of a resident pool (gpu-sim/adaptive; else unset).
  std::optional<ResidentPoolStats> pool;
  std::vector<Subproblem> remaining_pool;  ///< see collect_pool_on_stop
};

/// Serial-control B&B engine with pluggable batch bounding.
class BBEngine {
 public:
  BBEngine(const fsp::Instance& inst, const fsp::LowerBoundData& data,
           BoundEvaluator& evaluator, EngineOptions options);

  /// Solves from the root node.
  SolveResult solve();

  /// Solves from a frozen list of already-bounded nodes with a given
  /// incumbent (the experimental protocol of the paper §IV).
  SolveResult solve_from(std::vector<Subproblem> initial, Time initial_ub);

 private:
  SolveResult run(std::vector<Subproblem> initial, Time ub);

  const fsp::Instance* inst_;
  const fsp::LowerBoundData* data_;
  BoundEvaluator* evaluator_;
  EngineOptions options_;
};

}  // namespace fsbb::core
