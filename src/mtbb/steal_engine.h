// Work-stealing multicore B&B — the sharded-pool successor to the §V
// shared-pool baseline (mt_engine.h).
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
// Like the baseline, the search is exact — the optimum is deterministic,
// node counts vary across runs because incumbent updates race.
#pragma once

#include <vector>

#include "core/engine.h"
#include "fsp/instance.h"
#include "fsp/lb_data.h"
#include "mtbb/mt_engine.h"

namespace fsbb::mtbb {

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
