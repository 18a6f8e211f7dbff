#include "core/engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/node_arena.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"

namespace fsbb::core {
namespace {

/// One parent's children inside the pending batch (sibling/resident mode).
struct GroupExtent {
  NodeArena::Handle parent;
  std::int32_t depth;       ///< parent's packed head/tail (NodeRef::depth)
  std::uint32_t first;      ///< index of the first bound in the batch
  std::uint32_t count;      ///< bounds: r forward, 2r bidirectional
  std::uint32_t ticket = ResidentPool::kNullTicket;  ///< resident mode only
};

}  // namespace

BBEngine::BBEngine(const fsp::Instance& inst, const fsp::LowerBoundData& data,
                   BoundEvaluator& evaluator, EngineOptions options)
    : inst_(&inst), data_(&data), evaluator_(&evaluator),
      options_(std::move(options)) {
  FSBB_CHECK_MSG(options_.batch_size >= 1, "batch_size must be >= 1");
}

SolveResult BBEngine::solve() {
  Time ub;
  std::vector<JobId> seed_perm;
  if (options_.initial_ub.has_value()) {
    ub = *options_.initial_ub;
  } else {
    fsp::NehResult neh = fsp::neh(*inst_);
    ub = neh.makespan;
    seed_perm = std::move(neh.permutation);
  }

  std::vector<Subproblem> initial;
  Subproblem root = Subproblem::root(inst_->jobs());
  evaluator_->evaluate({&root, 1});
  initial.push_back(std::move(root));

  SolveResult result = run(std::move(initial), ub);
  // The NEH schedule is the incumbent until something beats it.
  if (!seed_perm.empty() && result.best_permutation.empty()) {
    result.best_makespan = ub;
    result.best_permutation = std::move(seed_perm);
  }
  return result;
}

SolveResult BBEngine::solve_from(std::vector<Subproblem> initial,
                                 Time initial_ub) {
  for (const Subproblem& sp : initial) {
    FSBB_CHECK_MSG(sp.lb != Subproblem::kUnevaluated,
                   "solve_from requires bounded nodes");
  }
  return run(std::move(initial), initial_ub);
}

SolveResult BBEngine::run(std::vector<Subproblem> initial, Time ub) {
  const WallTimer total_timer;
  SolveResult result;
  result.stats.initial_ub = ub;
  result.best_makespan = ub;

  const int n = inst_->jobs();
  // All live nodes sit in the arena; the pool moves 12-byte handles. The
  // engine's control loop is serial, so one lane suffices (the evaluator's
  // threads never touch the arena — they only read the parent spans).
  NodeArena arena(n);
  // Auditors (core/audit.h): snapshot the mode once per solve.
  std::unique_ptr<audit::ArenaAudit> arena_audit;
  std::unique_ptr<audit::TicketAudit> ticket_audit;
  std::unique_ptr<audit::IncumbentAudit> incumbent_audit;
  if (audit::enabled()) {
    arena_audit = std::make_unique<audit::ArenaAudit>("bb-engine");
    incumbent_audit = std::make_unique<audit::IncumbentAudit>("bb-engine");
    arena.set_audit(arena_audit.get());
  }
  auto pool = make_pool<NodeRef>(options_.strategy);
  const bool bidir = options_.branching == Branching::kBidirectional;
  for (Subproblem& sp : initial) {
    FSBB_CHECK_MSG(bidir || sp.tail == 0,
                   "forward branching cannot resume two-ended nodes");
    if (sp.lb < ub) {
      pool->push(NodeRef{sp.lb, pack_ends(sp.depth, sp.tail), arena.adopt(sp)});
    } else {
      ++result.stats.pruned;
    }
  }

  // Resident mode drives offload iterations against an evaluator-owned
  // device pool: node payloads stay resident, the engine moves tickets.
  // The select/branch/insert logic below is byte-for-byte the sibling
  // path's, so every EngineStats counter matches the host backends.
  // Sibling mode bounds children in place (no Subproblem materialization);
  // the fallback keeps the evaluator-facing flat batch of value nodes so
  // callback bounds and the GPU staging path see exactly what they used to.
  // DFS mode drives whole-subtree device launches through the SubtreeDfs
  // seam: the engine pops a set of roots, the kernel explores them with
  // fused select/branch/bound per lane, and work only resurfaces at
  // subtree exhaustion or the expansion-quota recall. Takes precedence
  // over the resident pool and the sibling seam.
  SubtreeDfs* dfs = evaluator_->subtree_dfs();
  if (dfs != nullptr) {
    FSBB_CHECK_MSG(options_.strategy == SelectionStrategy::kDepthFirst,
                   "the device DFS pool explores subtrees depth-first; "
                   "combine --gpu-pool dfs with --strategy depth-first");
  }
  ResidentPool* resident =
      dfs == nullptr ? evaluator_->resident_pool() : nullptr;
  if (resident != nullptr && audit::enabled()) {
    ticket_audit = std::make_unique<audit::TicketAudit>("resident-pool");
  }
  const bool sibling_mode =
      resident != nullptr || evaluator_->supports_sibling_batches();
  FSBB_CHECK_MSG(!bidir || (dfs == nullptr && resident == nullptr &&
                            sibling_mode),
                 "bidirectional branching needs a host sibling-batch "
                 "evaluator; " + evaluator_->name() + " branches forward");

  // Ticket of each arena slot's resident payload (resident mode only).
  // Slots are reused after release, so entries are reset to kNullTicket.
  std::vector<std::uint32_t> ticket_of;
  auto ticket_ref = [&](NodeArena::Handle h) -> std::uint32_t& {
    if (ticket_of.size() <= h) {
      ticket_of.resize(static_cast<std::size_t>(h) + 1,
                       ResidentPool::kNullTicket);
    }
    return ticket_of[h];
  };
  // Frees a node's resident payload (if any) and its arena slot.
  auto release_node = [&](NodeArena::Handle h) {
    if (resident && h < ticket_of.size() &&
        ticket_of[h] != ResidentPool::kNullTicket) {
      if (ticket_audit != nullptr) ticket_audit->on_release(ticket_of[h]);
      resident->release(ticket_of[h]);
      ticket_of[h] = ResidentPool::kNullTicket;
    }
    arena.release(h);
  };

  std::vector<Subproblem> pending_mat;   // fallback: materialized children
  std::vector<NodeRef> pending_refs;     // sibling: arena-backed children
  std::vector<NodeRef> dfs_refs;         // dfs: roots popped for a launch
  std::vector<DfsRoot> dfs_roots;
  std::vector<GroupExtent> extents;
  std::vector<SiblingBatch> groups;
  std::vector<ResidentGroup> rgroups;
  std::vector<Time> bounds;
  std::vector<std::uint32_t> child_tickets;
  pending_mat.reserve(options_.batch_size + static_cast<std::size_t>(n));
  pending_refs.reserve(options_.batch_size + static_cast<std::size_t>(n));

  std::optional<StopReason> stop;
  auto budget_exhausted = [&] {
    return options_.node_budget != 0 &&
           result.stats.branched >= options_.node_budget;
  };
  // Checked once per bounding batch; the engine may overrun a deadline or
  // cancellation by at most one batch.
  auto stop_reason_now = [&]() -> std::optional<StopReason> {
    if (budget_exhausted()) return StopReason::kBudget;
    if (options_.freeze_pool_size != 0 &&
        pool->size() >= options_.freeze_pool_size) {
      return StopReason::kFrozen;
    }
    if (options_.control) return options_.control->should_stop();
    return std::nullopt;
  };

  while (!pool->empty()) {
    if ((stop = stop_reason_now())) break;
    // Externally offered incumbents (another process's schedule, broadcast
    // through the control block) tighten the pruning bound without a
    // permutation: best_permutation stays whatever was found locally, and
    // the final makespan is a valid global bound either way.
    if (options_.control) {
      const Time external = options_.control->external_incumbent();
      if (external < result.best_makespan) result.best_makespan = external;
    }

    // --- DFS mode: one whole-subtree device launch per iteration ------
    if (dfs != nullptr) {
      // Pop the top-of-stack roots blindly: the launch performs the lazy
      // pop-time elimination per lane, at the exact point in the serial
      // exploration order where a batch_size-1 engine would.
      const std::size_t want = std::min(pool->size(), dfs->max_roots());
      dfs_refs.clear();
      dfs_roots.clear();
      for (std::size_t i = 0; i < want; ++i) {
        const NodeRef node = pool->pop();
        dfs_refs.push_back(node);
        dfs_roots.push_back(DfsRoot{arena.perm(node.slot), node.depth,
                                    node.lb});
      }
      std::uint64_t quota = std::max<std::uint64_t>(
          1, dfs->launch_expansions());
      // Scale the recall to the subscription: with few roots, most lanes
      // idle while the first subtrees monopolize a big quota serially, so
      // recall early — the surfaced deep children refill the idle lanes on
      // the next launch. Quota placement never changes the exploration
      // order (lanes run in serial pop order to exhaustion or recall), so
      // counters stay bit-identical to cpu-serial for any quota sequence.
      quota = std::min(quota, static_cast<std::uint64_t>(want) * 32);
      quota = std::max<std::uint64_t>(1, quota);
      if (options_.node_budget != 0) {
        // stop_reason_now() above guarantees branched < node_budget here.
        quota = std::min(quota,
                         options_.node_budget - result.stats.branched);
      }
      DfsLaunchResult launch;
      {
        const WallTimer bound_timer;
        launch = dfs->run_subtrees(result.best_makespan, dfs_roots, quota);
        result.stats.bounding_seconds += bound_timer.seconds();
      }
      // Replay incumbent improvements in discovery order with exact
      // running totals (pre-launch base + launch-local deltas): the
      // emitted stream is bit-identical to cpu-serial's.
      for (DfsIncumbentEvent& ev : launch.incumbents) {
        FSBB_ASSERT(ev.makespan < result.best_makespan);
        result.best_makespan = ev.makespan;
        if (incumbent_audit != nullptr) incumbent_audit->observe(ev.makespan);
        result.best_permutation = std::move(ev.permutation);
        ++result.stats.ub_updates;
        if (options_.control) {
          options_.control->emit_incumbent(
              ev.makespan, result.best_permutation,
              result.stats.branched + ev.branched,
              result.stats.evaluated + ev.evaluated,
              result.stats.pruned + ev.pruned);
        }
      }
      result.stats.branched += launch.stats.branched;
      result.stats.generated += launch.stats.generated;
      result.stats.evaluated += launch.stats.evaluated;
      result.stats.pruned += launch.stats.pruned;
      result.stats.leaves += launch.stats.leaves;
      // Consumed roots died inside the launch (their live descendants, if
      // any, came back through `surfaced`).
      FSBB_ASSERT(launch.roots_started <= dfs_refs.size());
      for (std::size_t i = 0; i < launch.roots_started; ++i) {
        release_node(dfs_refs[i].slot);
      }
      // Rebuild the exact serial stack: LIFO means pushing in reverse pop
      // order — untouched roots first (deepest in the stack), then the
      // surfaced nodes so the first-to-pop ends up on top.
      for (std::size_t i = dfs_refs.size(); i-- > launch.roots_started;) {
        NodeRef ref = dfs_refs[i];
        pool->push(std::move(ref));
      }
      for (auto it = launch.surfaced.rbegin(); it != launch.surfaced.rend();
           ++it) {
        pool->push(NodeRef{it->lb, it->depth, arena.adopt(*it)});
      }
      if (options_.control) {
        options_.control->maybe_emit_tick(result.best_makespan,
                                          result.stats.branched,
                                          result.stats.evaluated,
                                          result.stats.pruned);
      }
      continue;
    }

    // --- selection + elimination (lazy) + branching ------------------
    pending_mat.clear();
    pending_refs.clear();
    extents.clear();
    std::size_t pending_count = 0;  // bounds the batch will compute
    while (pending_count < options_.batch_size && !pool->empty()) {
      const NodeRef node = pool->pop();
      if (node.lb >= result.best_makespan) {
        ++result.stats.pruned;  // UB improved since this node was inserted
        release_node(node.slot);
        continue;
      }
      ++result.stats.branched;
      const auto perm = arena.perm(node.slot);
      const auto d = static_cast<std::size_t>(node.depth);
      const int r = n - node.fixed();
      if (r == 1) {
        // The single child is complete and its permutation is the
        // parent's (the one free job is already in place); its makespan
        // is exact, no bounding needed.
        ++result.stats.generated;
        ++result.stats.leaves;
        const Time ms = fsp::makespan(*inst_, perm);
        if (ms < result.best_makespan) {
          result.best_makespan = ms;
          if (incumbent_audit != nullptr) incumbent_audit->observe(ms);
          result.best_permutation.assign(perm.begin(), perm.end());
          ++result.stats.ub_updates;
          if (options_.control) {
            options_.control->emit_incumbent(
                ms, result.best_permutation, result.stats.branched,
                result.stats.evaluated, result.stats.pruned);
          }
        }
        release_node(node.slot);
      } else if (bidir) {
        // Both ends are bounded before either is kept, so the children
        // are written after bounding (elimination + insertion below); the
        // parent stays allocated until then.
        extents.push_back(GroupExtent{node.slot, node.depth,
                                      static_cast<std::uint32_t>(pending_count),
                                      static_cast<std::uint32_t>(2 * r)});
        pending_count += 2 * static_cast<std::size_t>(r);
      } else if (sibling_mode) {
        const auto first = static_cast<std::uint32_t>(pending_refs.size());
        for (int i = 0; i < r; ++i) {
          ++result.stats.generated;
          const NodeArena::Handle c = arena.allocate();
          write_child_perm(perm, d, static_cast<std::size_t>(i),
                           arena.perm(c));
          pending_refs.push_back(
              NodeRef{Subproblem::kUnevaluated, node.depth + 1, c});
        }
        // The parent stays allocated until after bounding: the sibling
        // batch reads its prefix and free jobs straight from the arena,
        // and the resident pool derives the children from its payload.
        const std::uint32_t ticket =
            resident ? ticket_ref(node.slot) : ResidentPool::kNullTicket;
        extents.push_back(GroupExtent{node.slot, node.depth, first,
                                      static_cast<std::uint32_t>(r), ticket});
        pending_count += static_cast<std::size_t>(r);
      } else {
        for (int i = 0; i < r; ++i) {
          ++result.stats.generated;
          Subproblem child;
          child.perm.resize(perm.size());
          write_child_perm(perm, d, static_cast<std::size_t>(i), child.perm);
          child.depth = node.depth + 1;
          pending_mat.push_back(std::move(child));
        }
        arena.release(node.slot);
        pending_count = pending_mat.size();
      }
      if (budget_exhausted()) break;
    }
    if (pending_count == 0) continue;

    // --- bounding (possibly offloaded) --------------------------------
    {
      const WallTimer bound_timer;
      if (resident) {
        // One offload iteration: parents travel as tickets (plus refill
        // permutations for non-resident ones), children are derived and
        // bounded inside the pool, bounds and child tickets come back.
        bounds.resize(pending_refs.size());
        child_tickets.assign(pending_refs.size(), ResidentPool::kNullTicket);
        rgroups.clear();
        rgroups.reserve(extents.size());
        for (const GroupExtent& e : extents) {
          ResidentGroup g;
          g.ticket = e.ticket;
          g.perm = arena.perm(e.parent);
          g.depth = e.depth;
          g.bounds = std::span<Time>(bounds).subspan(e.first, e.count);
          g.child_tickets =
              std::span<std::uint32_t>(child_tickets).subspan(e.first, e.count);
          rgroups.push_back(g);
        }
        resident->iterate(result.best_makespan, rgroups);
      } else if (sibling_mode) {
        bounds.resize(pending_count);
        groups.clear();
        groups.reserve(extents.size());
        for (const GroupExtent& e : extents) {
          const auto parent_perm = arena.perm(e.parent);
          const auto head = static_cast<std::size_t>(packed_head(e.depth));
          const auto tail = static_cast<std::size_t>(packed_tail(e.depth));
          groups.push_back(SiblingBatch{
              parent_perm.first(head),
              parent_perm.subspan(head, parent_perm.size() - head - tail),
              std::span<Time>(bounds).subspan(e.first, e.count),
              parent_perm.last(tail), options_.branching});
        }
        evaluator_->evaluate_siblings(groups);
      } else {
        evaluator_->evaluate(pending_mat);
      }
      result.stats.bounding_seconds += bound_timer.seconds();
      result.stats.evaluated += pending_count;
    }

    // --- elimination + insertion --------------------------------------
    if (bidir) {
      for (const GroupExtent& e : extents) {
        const std::size_t r = e.count / 2;
        const auto lbs = std::span<const Time>(bounds).subspan(e.first, e.count);
        const BranchEnd end = choose_branch_end(lbs.first(r), lbs.subspan(r),
                                                result.best_makespan);
        const auto kept = end == BranchEnd::kHead ? lbs.first(r)
                                                  : lbs.subspan(r);
        const auto parent = arena.perm(e.parent);
        result.stats.generated += r;
        for (std::size_t i = 0; i < r; ++i) {
          if (kept[i] >= result.best_makespan) {
            ++result.stats.pruned;
            continue;
          }
          const NodeArena::Handle c = arena.allocate();
          const std::int32_t ends =
              write_end_child(parent, packed_head(e.depth),
                              packed_tail(e.depth), end, i, arena.perm(c));
          pool->push(NodeRef{kept[i], ends, c});
        }
        release_node(e.parent);
      }
    } else if (sibling_mode) {
      for (std::size_t i = 0; i < pending_refs.size(); ++i) {
        NodeRef child = pending_refs[i];
        child.lb = bounds[i];
        FSBB_ASSERT(child.lb != Subproblem::kUnevaluated);
        if (resident) {
          ticket_ref(child.slot) = child_tickets[i];
          if (ticket_audit != nullptr &&
              child_tickets[i] != ResidentPool::kNullTicket) {
            ticket_audit->on_issue(child_tickets[i]);
          }
        }
        if (child.lb < result.best_makespan) {
          pool->push(std::move(child));
        } else {
          ++result.stats.pruned;
          release_node(child.slot);
        }
      }
      for (const GroupExtent& e : extents) release_node(e.parent);
    } else {
      for (Subproblem& child : pending_mat) {
        FSBB_ASSERT(child.lb != Subproblem::kUnevaluated);
        if (child.lb < result.best_makespan) {
          pool->push(NodeRef{child.lb, child.depth, arena.adopt(child)});
        } else {
          ++result.stats.pruned;
        }
      }
    }

    if (options_.control) {
      options_.control->maybe_emit_tick(result.best_makespan,
                                        result.stats.branched,
                                        result.stats.evaluated,
                                        result.stats.pruned);
    }
  }

  // The pending buffers are always drained here: the stop conditions are
  // only honoured at the top of the loop, after the previous batch was
  // inserted.
  result.proven_optimal = !stop && pool->empty();
  result.stop_reason = stop.value_or(StopReason::kOptimal);
  // The reported occupancy is the pool as the search left it (an early
  // stop reports its live nodes) — snapshot before any audit drain below.
  if (resident) result.pool = resident->shard_stats();
  if (stop && (options_.collect_pool_on_stop || arena_audit != nullptr)) {
    std::vector<NodeRef> refs = pool->drain();
    if (options_.collect_pool_on_stop) {
      result.remaining_pool.reserve(refs.size());
      for (const NodeRef& ref : refs) {
        result.remaining_pool.push_back(
            arena.materialize(ref.slot, ref.depth, ref.lb));
      }
    }
    // Release what the stop left behind, so the audits below can insist
    // on full conservation (anything still live is a genuine leak).
    for (const NodeRef& ref : refs) release_node(ref.slot);
  }
  if (arena_audit != nullptr) arena_audit->check_drained();
  if (ticket_audit != nullptr) ticket_audit->finish(resident->shard_stats());
  result.stats.wall_seconds = total_timer.seconds();
  return result;
}

}  // namespace fsbb::core
