// Low-level multi-threaded B&B (the paper §V baseline, which uses POSIX
// threads over a shared pool on a multi-core host).
//
// N workers share one best-first pool behind a mutex and a global atomic
// incumbent. Each worker pops a node, branches and bounds its children
// with thread-local scratch (the expensive part, fully parallel), then
// reinserts the survivors. Termination: pool empty and no node in flight.
//
// The search is exact and deterministic in its *result* (the optimum);
// node counts vary slightly across runs because incumbent updates race —
// exactly as in the paper's Pthread implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/search_control.h"
#include "fsp/instance.h"
#include "fsp/lb_data.h"

namespace fsbb::mtbb {

/// Which lower bound the workers compute per child. Both engines support
/// both bounds through the incremental sibling contexts
/// (fsp::Lb1BoundContext / fsp::Lb2BoundContext): one set_parent per
/// popped node, one O(m) front extension plus a compacted Johnson sweep
/// per child.
enum class MtBound {
  kLb1,
  kLb2,
};

/// Multi-threaded solve configuration, shared by the shared-pool baseline
/// and the work-stealing engine.
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

/// Solves from the root with `options.threads` workers.
core::SolveResult mt_solve(const fsp::Instance& inst,
                           const fsp::LowerBoundData& data,
                           const MtOptions& options);

/// Explores a frozen node list with a given incumbent (protocol runs).
core::SolveResult mt_solve_from(const fsp::Instance& inst,
                                const fsp::LowerBoundData& data,
                                std::vector<core::Subproblem> initial,
                                fsp::Time initial_ub, const MtOptions& options);

}  // namespace fsbb::mtbb
