// Work-stealing multicore B&B — the repo's threaded search loop (the
// paper's §V "multithreaded CPU-based execution").
//
// Each of the N workers owns one mutex-guarded deque of 12-byte NodeRef
// handles (core::ShardedPoolT): it pushes and pops LIFO locally
// (depth-first dive, uncontended lock), and when its deque runs dry it
// scans the other workers round-robin and steals up to four of the oldest
// nodes from the first non-empty one. The incumbent is a lock-free atomic
// that every worker prunes against; the best permutation rides behind a
// small mutex touched only on improvement. Termination is a global
// in-flight node counter (nodes resident in any deque or being branched)
// with a two-phase quiescence check: a starving worker that observes zero
// re-reads after a full fence before exiting, so no node can be in
// transit past it.
//
// The search is exact and deterministic in its *result* (the optimum);
// node counts vary slightly across runs because incumbent updates race.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/search_control.h"
#include "fsp/instance.h"
#include "fsp/lb_data.h"

namespace fsbb::mtbb {

/// Which lower bound the workers compute per child, both through
/// incremental sibling contexts: one set_parent per popped node, one O(m)
/// front extension plus compacted Johnson sweeps per child. LB1 branches
/// bidirectionally (fsp::Lb1BidirContext bounds both ends' children and
/// core::choose_branch_end keeps one end, as BBEngine's bidirectional
/// mode does); LB2 branches forward (fsp::Lb2BoundContext is prefix-only).
enum class MtBound {
  kLb1,
  kLb2,
};

/// Multi-threaded solve configuration.
struct MtOptions {
  std::size_t threads = 4;
  /// Lower bound the workers compute per child.
  MtBound bound = MtBound::kLb1;
  /// Starting incumbent; NEH if unset.
  std::optional<fsp::Time> initial_ub;
  /// Stop after this many branched nodes across all workers (0 = solve).
  std::uint64_t node_budget = 0;
  /// Cooperative cancellation / deadline / progress block (not owned; may
  /// be null). Every worker polls it once per node expansion.
  core::SearchControl* control = nullptr;
};

/// Solves from the root with `options.threads` work-stealing workers.
/// The result carries merged StealStats in SolveResult::steal.
core::SolveResult steal_solve(const fsp::Instance& inst,
                              const fsp::LowerBoundData& data,
                              const MtOptions& options);

/// Explores a frozen node list with a given incumbent (protocol runs).
/// Initial nodes are round-robined across the worker shards.
core::SolveResult steal_solve_from(const fsp::Instance& inst,
                                   const fsp::LowerBoundData& data,
                                   std::vector<core::Subproblem> initial,
                                   fsp::Time initial_ub,
                                   const MtOptions& options);

}  // namespace fsbb::mtbb
