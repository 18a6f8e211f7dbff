#include "mtbb/mt_engine.h"

#include <limits>
#include <thread>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/node_arena.h"
#include "core/pool.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "mtbb/branch_expand.h"

namespace fsbb::mtbb {
namespace {

using core::NodeRef;
using core::Subproblem;

/// Everything the workers share.
struct Shared {
  Mutex mu;
  CondVar cv;
  core::NodeArena* arena = nullptr;  // lanes: one per worker + main
  std::unique_ptr<core::ArenaPool> pool FSBB_GUARDED_BY(mu);
  /// Nodes popped but not yet re-inserted.
  std::size_t in_flight FSBB_GUARDED_BY(mu) = 0;
  bool stop FSBB_GUARDED_BY(mu) = false;  // budget exhausted
  /// Incumbent; a best_perm update must ride the same critical section.
  fsp::Time ub FSBB_GUARDED_BY(mu);
  std::vector<fsp::JobId> best_perm FSBB_GUARDED_BY(mu);
  std::uint64_t branched FSBB_GUARDED_BY(mu) = 0;
  std::uint64_t node_budget = 0;  // set before the gang starts
  core::EngineStats stats FSBB_GUARDED_BY(mu);  // merged at worker exit
  core::StopReason stop_reason FSBB_GUARDED_BY(mu) = core::StopReason::kOptimal;
  core::SearchControl* control = nullptr;  // may be null
  /// Acceptance-order auditor (core/audit.h); null when auditing is off.
  core::audit::IncumbentAudit* incumbent_audit = nullptr;
};

/// Latches the first stop reason and wakes every worker. Caller must NOT
/// hold sh.mu.
void request_stop(Shared& sh, core::StopReason reason) {
  const LockGuard lock(sh.mu);
  if (!sh.stop) {
    sh.stop = true;
    sh.stop_reason = reason;
  }
  sh.cv.notify_all();
}

/// BoundContext is fsp::Lb1BoundContext or detail::Lb2BoundContext — the
/// search loop is byte-for-byte the same either way; only bound_child's
/// arithmetic differs.
template <typename BoundContext>
void worker(const fsp::Instance& inst, Shared& sh, std::size_t lane,
            BoundContext ctx) {
  core::EngineStats local;
  std::vector<fsp::Time> lbs;
  std::vector<NodeRef> survivors;

  for (;;) {
    // Cooperative stop: polled before taking the lock, so a canceled or
    // past-deadline search unwinds within one node expansion per worker.
    if (sh.control) {
      if (const auto reason = sh.control->should_stop()) {
        request_stop(sh, *reason);
        break;
      }
      // Fold externally offered incumbents (dist/ broadcasts) into the
      // shared bound; best_perm stays the best locally found schedule.
      const fsp::Time external = sh.control->external_incumbent();
      if (external < std::numeric_limits<fsp::Time>::max()) {
        const LockGuard lock(sh.mu);
        if (external < sh.ub) sh.ub = external;
      }
    }
    NodeRef node;
    std::uint64_t branched_total = 0;
    {
      UniqueLock lock(sh.mu);
      while (!sh.stop && sh.pool->empty() && sh.in_flight != 0) {
        sh.cv.wait(lock);
      }
      if (sh.stop || (sh.pool->empty() && sh.in_flight == 0)) break;
      if (sh.pool->empty()) continue;  // spurious: others still in flight
      node = sh.pool->pop();
      if (node.lb >= sh.ub) {
        ++local.pruned;
        sh.arena->release(node.slot, lane);  // lane-local, lock-free
        if (sh.pool->empty() && sh.in_flight == 0) sh.cv.notify_all();
        continue;
      }
      ++sh.branched;
      ++sh.in_flight;
      branched_total = sh.branched;
      if (sh.node_budget != 0 && sh.branched >= sh.node_budget && !sh.stop) {
        sh.stop = true;
        sh.stop_reason = core::StopReason::kBudget;
        sh.cv.notify_all();
      }
    }
    ++local.branched;

    // Branch + bound the children without holding the lock.
    const fsp::Time ub_snapshot = [&] {
      const LockGuard lock(sh.mu);
      return sh.ub;
    }();
    detail::BestLeaf best_leaf = detail::expand_node(
        inst, *sh.arena, lane, node, ub_snapshot, ctx, local, lbs, survivors);
    sh.arena->release(node.slot, lane);

    bool improved = false;
    std::vector<fsp::JobId> improved_perm;
    fsp::Time tick_ub;
    {
      const LockGuard lock(sh.mu);
      if (best_leaf.makespan < sh.ub) {
        sh.ub = best_leaf.makespan;
        // The audit observes inside the acceptance critical section, so it
        // sees exactly the order the engine committed incumbents in.
        if (sh.incumbent_audit) sh.incumbent_audit->observe(best_leaf.makespan);
        if (sh.control) improved_perm = best_leaf.perm;  // for the event
        sh.best_perm = std::move(best_leaf.perm);
        ++local.ub_updates;
        improved = true;
      }
      for (NodeRef& child : survivors) {
        // Re-check against the freshest incumbent before inserting.
        if (child.lb < sh.ub) {
          sh.pool->push(std::move(child));
        } else {
          ++local.pruned;
          sh.arena->release(child.slot, lane);
        }
      }
      --sh.in_flight;
      tick_ub = sh.ub;
      sh.cv.notify_all();
    }
    if (sh.control) {
      // Parallel engines stream the global branched count and incumbent;
      // the per-operator counters only exist merged, in the final report.
      if (improved) {
        sh.control->emit_incumbent(best_leaf.makespan, improved_perm,
                                   branched_total, 0, 0);
      }
      sh.control->maybe_emit_tick(tick_ub, branched_total, 0, 0);
    }
  }

  const LockGuard lock(sh.mu);
  sh.stats.branched += local.branched;
  sh.stats.generated += local.generated;
  sh.stats.evaluated += local.evaluated;
  sh.stats.pruned += local.pruned;
  sh.stats.leaves += local.leaves;
  sh.stats.ub_updates += local.ub_updates;
  sh.stats.bounding_seconds += local.bounding_seconds;
}

core::SolveResult run(const fsp::Instance& inst,
                      const fsp::LowerBoundData& data,
                      std::vector<Subproblem> initial, fsp::Time initial_ub,
                      const MtOptions& options,
                      std::vector<fsp::JobId> seed_perm) {
  FSBB_CHECK_MSG(options.threads >= 1, "need at least one worker");
  const WallTimer timer;

  // LB2 tables, shared read-only by every worker (each worker's context
  // keeps its own two-smallest state; the tables themselves are immutable).
  std::unique_ptr<fsp::Lb2Data> lb2;
  if (options.bound == MtBound::kLb2) {
    lb2 = std::make_unique<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
  }

  // One allocation lane per worker plus one for this (the coordinating)
  // thread, which adopts the initial nodes.
  core::NodeArena arena(inst.jobs(), options.threads + 1);
  const std::size_t main_lane = options.threads;

  // Auditors (core/audit.h): snapshot the mode once per solve.
  std::unique_ptr<core::audit::ArenaAudit> arena_audit;
  std::unique_ptr<core::audit::IncumbentAudit> incumbent_audit;
  if (core::audit::enabled()) {
    arena_audit = std::make_unique<core::audit::ArenaAudit>("multicore");
    incumbent_audit =
        std::make_unique<core::audit::IncumbentAudit>("multicore");
    arena.set_audit(arena_audit.get());
  }

  Shared sh;
  sh.arena = &arena;
  sh.node_budget = options.node_budget;
  sh.control = options.control;
  sh.incumbent_audit = incumbent_audit.get();
  {
    // Workers have not started; the lock is uncontended and keeps every
    // access to the guarded fields inside a critical section.
    const LockGuard lock(sh.mu);
    sh.pool = core::make_pool<NodeRef>(core::SelectionStrategy::kBestFirst);
    sh.ub = initial_ub;
    sh.best_perm = std::move(seed_perm);
    sh.stats.initial_ub = initial_ub;
    for (Subproblem& sp : initial) {
      FSBB_CHECK_MSG(sp.lb != Subproblem::kUnevaluated,
                     "mt engine requires bounded initial nodes");
      if (sp.lb < sh.ub) {
        sh.pool->push(NodeRef{sp.lb, sp.depth, arena.adopt(sp, main_lane)});
      } else {
        ++sh.stats.pruned;
      }
    }
  }

  {
    std::vector<std::thread> workers;
    workers.reserve(options.threads);
    for (std::size_t i = 0; i < options.threads; ++i) {
      if (lb2 != nullptr) {
        workers.emplace_back([&inst, &data, &sh, i, lb2 = lb2.get()] {
          worker(inst, sh, i, detail::Lb2BoundContext(inst, data, *lb2));
        });
      } else {
        workers.emplace_back([&inst, &data, &sh, i] {
          worker(inst, sh, i, fsp::Lb1BoundContext(inst, data));
        });
      }
    }
    for (auto& w : workers) w.join();
  }

  core::SolveResult result;
  {
    const LockGuard lock(sh.mu);
    result.best_makespan = sh.ub;
    result.best_permutation = std::move(sh.best_perm);
    result.proven_optimal = !sh.stop;  // stopped only when pool drained
    result.stop_reason = sh.stop_reason;
    result.stats = sh.stats;
    if (arena_audit != nullptr) {
      // Early stops leave unexplored nodes in the pool; release them so
      // the drain check distinguishes "still pooled" from "leaked".
      while (!sh.pool->empty()) {
        arena.release(sh.pool->pop().slot, main_lane);
      }
    }
  }
  if (arena_audit != nullptr) arena_audit->check_drained();
  result.stats.wall_seconds = timer.seconds();
  // Per-worker mean, so bounding_fraction() is the share of a worker's
  // wall time spent bounding.
  result.stats.bounding_seconds /= static_cast<double>(options.threads);
  return result;
}

}  // namespace

core::SolveResult mt_solve(const fsp::Instance& inst,
                           const fsp::LowerBoundData& data,
                           const MtOptions& options) {
  std::unique_ptr<fsp::Lb2Data> lb2;
  if (options.bound == MtBound::kLb2) {
    lb2 = std::make_unique<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
  }
  detail::RootStart start =
      detail::make_root_start(inst, data, options.initial_ub, lb2.get());
  std::vector<Subproblem> initial;
  initial.push_back(std::move(start.root));
  return run(inst, data, std::move(initial), start.ub, options,
             std::move(start.seed_perm));
}

core::SolveResult mt_solve_from(const fsp::Instance& inst,
                                const fsp::LowerBoundData& data,
                                std::vector<core::Subproblem> initial,
                                fsp::Time initial_ub,
                                const MtOptions& options) {
  return run(inst, data, std::move(initial), initial_ub, options, {});
}

}  // namespace fsbb::mtbb
