#include "mtbb/steal_engine.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/node_arena.h"
#include "core/subproblem.h"
#include "core/work_steal.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"

namespace fsbb::mtbb {
namespace {

using core::NodeRef;
using core::StealStats;
using core::Subproblem;

/// Failed steal rounds before a starving worker naps instead of spinning.
constexpr int kSpinRoundsBeforeNap = 16;
constexpr auto kNap = std::chrono::microseconds(100);
/// Oldest nodes moved per successful steal. Batches of 1 and 16 prove the
/// Taillard 20x5 set no faster at 4 threads (README, "One steal
/// configuration").
constexpr std::size_t kStealBatch = 4;

/// Best complete schedule seen while expanding one node.
struct BestLeaf {
  fsp::Time makespan = std::numeric_limits<fsp::Time>::max();
  std::vector<fsp::JobId> perm;
};

/// Branches the node behind `node.slot`, bounds every incomplete child
/// with the bound context into `lbs`, appends the children below
/// `ub_snapshot` to `survivors` (cleared first) and accumulates the
/// generated/evaluated/pruned/leaves counters and the bounding time into
/// `stats`. fsp::Lb2BoundContext bounds the head children;
/// fsp::Lb1BidirContext bounds the children of both ends and keeps the
/// end core::choose_branch_end picks, exactly as
/// BBEngine's bidirectional path does. The context is bound to the parent
/// once; each child then costs an O(m) front extension plus a
/// remaining-jobs-only sweep, the same sibling-batch discipline the serial
/// engine gets through BoundEvaluator::evaluate_siblings. All children are
/// bounded before any survivor is allocated, so the timed region is the
/// bound context alone. Children are allocated on `lane`; the caller still
/// owns (and must release) the parent slot. Returns the best complete
/// child, if any.
template <typename BoundContext>
BestLeaf expand_node(const fsp::Instance& inst, core::NodeArena& arena,
                     std::size_t lane, const NodeRef& node,
                     fsp::Time ub_snapshot, BoundContext& ctx,
                     core::EngineStats& stats, std::vector<fsp::Time>& lbs,
                     std::vector<NodeRef>& survivors) {
  survivors.clear();
  BestLeaf best;
  const auto perm = arena.perm(node.slot);
  const auto head = static_cast<std::size_t>(node.head());
  const auto tail = static_cast<std::size_t>(node.tail());
  const int r = inst.jobs() - node.fixed();
  if (r == 1) {
    // The single child is complete and equals the parent's permutation
    // (the one free job is already in place); its makespan is exact.
    ++stats.generated;
    ++stats.leaves;
    const fsp::Time ms = fsp::makespan(inst, perm);
    if (ms < best.makespan) {
      best.makespan = ms;
      best.perm.assign(perm.begin(), perm.end());
    }
    return best;
  }
  constexpr bool kTwoSided =
      std::is_same_v<BoundContext, fsp::Lb1BidirContext>;
  const auto children = static_cast<std::size_t>(r);
  lbs.resize(kTwoSided ? 2 * children : children);
  {
    const WallTimer bound_timer;
    if constexpr (kTwoSided) {
      ctx.set_parent(perm.first(head), perm.last(tail));
      for (std::size_t i = 0; i < children; ++i) {
        lbs[i] = ctx.bound_head_child(perm[head + i]);
        lbs[children + i] = ctx.bound_tail_child(perm[head + i]);
      }
    } else {
      ctx.set_parent(perm.first(head));
      for (std::size_t i = 0; i < children; ++i) {
        lbs[i] = ctx.bound_child(perm[head + i]);
      }
    }
    stats.bounding_seconds += bound_timer.seconds();
  }
  stats.generated += children;
  stats.evaluated += lbs.size();
  const std::span<const fsp::Time> all(lbs);
  core::BranchEnd end = core::BranchEnd::kHead;
  if constexpr (kTwoSided) {
    end = core::choose_branch_end(all.first(children),
                                  all.subspan(children), ub_snapshot);
  }
  const auto kept = end == core::BranchEnd::kHead ? all.first(children)
                                                  : all.subspan(children);
  for (std::size_t i = 0; i < children; ++i) {
    if (kept[i] < ub_snapshot) {
      const core::NodeArena::Handle c = arena.allocate(lane);
      const std::int32_t ends = core::write_end_child(
          perm, node.head(), node.tail(), end, i, arena.perm(c));
      survivors.push_back(NodeRef{kept[i], ends, c});
    } else {
      ++stats.pruned;
    }
  }
  return best;
}

/// Everything the workers share. The hot path (pop/push/prune) only
/// touches the worker's own shard and two atomics; permutations live in
/// the shared arena and never move — a steal copies 12-byte handles.
struct Shared {
  explicit Shared(std::size_t workers, int jobs)
      : pool(workers), arena(jobs, workers + 1) {}

  core::ShardedPoolT<NodeRef> pool;  // one deque per worker
  core::NodeArena arena;
  /// Nodes resident anywhere: in a deque or being branched. Children are
  /// counted before their parent is released, so 0 means the tree is done.
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<fsp::Time> ub{std::numeric_limits<fsp::Time>::max()};
  std::atomic<std::uint64_t> branched{0};  // budget accounting only
  std::atomic<bool> stop{false};           // early-stop flag (see stop_latch)
  /// First stop reason latched (as int; -1 = none). Written once via CAS
  /// before `stop` is raised, so every worker reports the same reason.
  std::atomic<int> stop_latch{-1};
  std::uint64_t node_budget = 0;
  core::SearchControl* control = nullptr;  // may be null
  /// LB2 tables, shared read-only by every worker (kLb2 runs only).
  const fsp::Lb2Data* lb2 = nullptr;

  Mutex best_mu;
  fsp::Time best_perm_makespan FSBB_GUARDED_BY(best_mu) =
      std::numeric_limits<fsp::Time>::max();
  std::vector<fsp::JobId> best_perm FSBB_GUARDED_BY(best_mu);
  /// Acceptance-order auditor (core/audit.h); null when auditing is off.
  /// Observes inside the best_mu critical section, in acceptance order.
  core::audit::IncumbentAudit* incumbent_audit = nullptr;

  Mutex stats_mu;  // merge point at worker exit
  core::EngineStats stats FSBB_GUARDED_BY(stats_mu);
  StealStats steal_stats FSBB_GUARDED_BY(stats_mu);

  /// Start barrier: workers spin here until the whole gang exists, so the
  /// shard holding the root cannot race ahead of thieves that the OS has
  /// not scheduled yet (on short solves that skew serializes the search).
  std::atomic<std::size_t> ready{0};
};

void request_stop(Shared& sh, core::StopReason reason) {
  int expected = -1;
  sh.stop_latch.compare_exchange_strong(expected, static_cast<int>(reason),
                                        std::memory_order_acq_rel);
  sh.stop.store(true, std::memory_order_release);
}

void await_gang(Shared& sh) {
  sh.ready.fetch_add(1, std::memory_order_acq_rel);
  while (sh.ready.load(std::memory_order_acquire) < sh.pool.shards()) {
    std::this_thread::yield();
  }
}

/// One round-robin victim-scan round. Returns a node to process (stolen
/// batch minus one lands in the thief's own deque) or nullopt if every
/// victim was dry.
std::optional<NodeRef> try_steal(Shared& sh, std::size_t id,
                                 std::size_t& rr_cursor,
                                 std::vector<NodeRef>& loot,
                                 StealStats& local) {
  const std::size_t workers = sh.pool.shards();
  if (workers <= 1) return std::nullopt;
  for (std::size_t probe = 0; probe + 1 < workers; ++probe) {
    // Skip self without consuming a probe, so every scan covers all W-1
    // other shards (at 2 threads the single probe must always land on
    // the other worker).
    if (rr_cursor == id) {
      rr_cursor = rr_cursor + 1 == workers ? 0 : rr_cursor + 1;
    }
    const std::size_t victim = rr_cursor;
    rr_cursor = rr_cursor + 1 == workers ? 0 : rr_cursor + 1;
    loot.clear();
    ++local.steal_attempts;
    if (sh.pool.shard(victim).steal(loot, kStealBatch) == 0) continue;
    ++local.steal_successes;
    local.nodes_stolen += loot.size();
    // Keep the oldest node for immediate branching; the rest refill the
    // local deque (in_flight is unchanged — the nodes merely moved shard).
    NodeRef next = loot.front();
    for (std::size_t i = 1; i < loot.size(); ++i) {
      sh.pool.shard(id).push(std::move(loot[i]));
    }
    return next;
  }
  return std::nullopt;
}

/// BoundContext is fsp::Lb1BidirContext or fsp::Lb2BoundContext — the
/// search loop is byte-for-byte the same either way; only expand_node's
/// bounding and branching differ.
template <typename BoundContext>
void worker(const fsp::Instance& inst, const fsp::LowerBoundData& /*data*/,
            Shared& sh, std::size_t id, BoundContext ctx) {
  core::EngineStats local;
  StealStats local_steals;
  std::vector<fsp::Time> lbs;
  std::vector<NodeRef> survivors;
  std::vector<NodeRef> loot;
  std::size_t rr_cursor = (id + 1) % sh.pool.shards();
  int dry_rounds = 0;
  await_gang(sh);

  for (;;) {
    if (sh.stop.load(std::memory_order_acquire)) break;
    // Cooperative stop: polled once per node, so cancellation and deadlines
    // take effect within one expansion per worker.
    if (sh.control) {
      if (const auto reason = sh.control->should_stop()) {
        request_stop(sh, *reason);
        break;
      }
      // Fold externally offered incumbents (dist/ broadcasts) into the
      // shared bound: CAS-min on the ub atomic only — best_perm stays the
      // best *locally discovered* schedule.
      const fsp::Time external = sh.control->external_incumbent();
      fsp::Time cur = sh.ub.load(std::memory_order_relaxed);
      while (external < cur &&
             !sh.ub.compare_exchange_weak(cur, external,
                                          std::memory_order_acq_rel)) {
      }
    }
    std::optional<NodeRef> node = sh.pool.shard(id).pop();
    if (!node) node = try_steal(sh, id, rr_cursor, loot, local_steals);
    if (!node) {
      // Two-phase quiescence: observing zero once is not enough in
      // general (a node could be between a pop and its children's
      // pushes), so confirm after a full fence. in_flight counts
      // children before releasing the parent, which makes the confirmed
      // zero final: nothing can re-raise it.
      if (sh.in_flight.load(std::memory_order_acquire) == 0) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sh.in_flight.load(std::memory_order_seq_cst) == 0) break;
      }
      if (++dry_rounds >= kSpinRoundsBeforeNap) {
        std::this_thread::sleep_for(kNap);
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    dry_rounds = 0;

    const fsp::Time ub_snapshot = sh.ub.load(std::memory_order_acquire);
    if (node->lb >= ub_snapshot) {
      ++local.pruned;
      sh.arena.release(node->slot, id);
      sh.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    const std::uint64_t branched_total =
        sh.branched.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (sh.node_budget != 0 && branched_total >= sh.node_budget) {
      request_stop(sh, core::StopReason::kBudget);
    }
    ++local.branched;

    BestLeaf best_leaf = expand_node(
        inst, sh.arena, id, *node, ub_snapshot, ctx, local, lbs, survivors);
    sh.arena.release(node->slot, id);

    if (best_leaf.makespan < sh.ub.load(std::memory_order_acquire)) {
      // Lock-free incumbent: CAS-min the atomic every worker prunes
      // against, then record the permutation behind the mutex (its own
      // makespan field keeps late-arriving weaker updates out).
      fsp::Time cur = sh.ub.load(std::memory_order_relaxed);
      while (best_leaf.makespan < cur &&
             !sh.ub.compare_exchange_weak(cur, best_leaf.makespan,
                                          std::memory_order_acq_rel)) {
      }
      bool improved = false;
      std::vector<fsp::JobId> improved_perm;
      {
        const LockGuard lock(sh.best_mu);
        if (best_leaf.makespan < sh.best_perm_makespan) {
          sh.best_perm_makespan = best_leaf.makespan;
          if (sh.incumbent_audit) {
            sh.incumbent_audit->observe(best_leaf.makespan);
          }
          if (sh.control) improved_perm = best_leaf.perm;  // for the event
          sh.best_perm = std::move(best_leaf.perm);
          ++local.ub_updates;
          improved = true;
        }
      }
      if (improved && sh.control) {
        // Global branched count + incumbent; per-operator counters only
        // exist merged, in the final report.
        sh.control->emit_incumbent(best_leaf.makespan, improved_perm,
                                   branched_total, 0, 0);
      }
    }
    if (sh.control) {
      sh.control->maybe_emit_tick(sh.ub.load(std::memory_order_acquire),
                                  branched_total, 0, 0);
    }

    // Children first, parent last: in_flight can only hit zero when the
    // whole subtree below every popped node has been accounted.
    const fsp::Time ub_fresh = sh.ub.load(std::memory_order_acquire);
    for (NodeRef& child : survivors) {
      if (child.lb < ub_fresh) {
        sh.in_flight.fetch_add(1, std::memory_order_acq_rel);
        sh.pool.shard(id).push(std::move(child));
      } else {
        ++local.pruned;
        sh.arena.release(child.slot, id);
      }
    }
    sh.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  }

  const LockGuard lock(sh.stats_mu);
  sh.stats.branched += local.branched;
  sh.stats.generated += local.generated;
  sh.stats.evaluated += local.evaluated;
  sh.stats.pruned += local.pruned;
  sh.stats.leaves += local.leaves;
  sh.stats.ub_updates += local.ub_updates;
  sh.stats.bounding_seconds += local.bounding_seconds;
  sh.steal_stats.steal_attempts += local_steals.steal_attempts;
  sh.steal_stats.steal_successes += local_steals.steal_successes;
  sh.steal_stats.nodes_stolen += local_steals.nodes_stolen;
}

core::SolveResult run(const fsp::Instance& inst,
                      const fsp::LowerBoundData& data,
                      std::vector<Subproblem> initial, fsp::Time initial_ub,
                      const MtOptions& options,
                      std::vector<fsp::JobId> seed_perm,
                      const fsp::Lb2Data* lb2) {
  FSBB_CHECK_MSG(options.threads >= 1, "need at least one worker");
  FSBB_CHECK_MSG(options.bound != MtBound::kLb2 || lb2 != nullptr,
                 "lb2 runs need the Lb2Data tables");
  const WallTimer timer;

  // Auditors (core/audit.h): snapshot the mode once per solve.
  std::unique_ptr<core::audit::ArenaAudit> arena_audit;
  std::unique_ptr<core::audit::IncumbentAudit> incumbent_audit;
  if (core::audit::enabled()) {
    arena_audit = std::make_unique<core::audit::ArenaAudit>("cpu-steal");
    incumbent_audit =
        std::make_unique<core::audit::IncumbentAudit>("cpu-steal");
  }

  Shared sh(options.threads, inst.jobs());
  if (arena_audit != nullptr) sh.arena.set_audit(arena_audit.get());
  sh.incumbent_audit = incumbent_audit.get();
  sh.lb2 = lb2;
  const std::size_t main_lane = options.threads;
  sh.ub.store(initial_ub, std::memory_order_relaxed);
  sh.node_budget = options.node_budget;
  sh.control = options.control;
  {
    // Workers have not started; the locks are uncontended and keep every
    // guarded-field access inside a critical section.
    const LockGuard lock(sh.best_mu);
    sh.best_perm_makespan = initial_ub;
    sh.best_perm = std::move(seed_perm);
  }
  {
    const LockGuard lock(sh.stats_mu);
    sh.stats.initial_ub = initial_ub;
  }

  std::vector<NodeRef> live;
  live.reserve(initial.size());
  for (Subproblem& sp : initial) {
    FSBB_CHECK_MSG(sp.lb != Subproblem::kUnevaluated,
                   "steal engine requires bounded initial nodes");
    FSBB_CHECK_MSG(options.bound == MtBound::kLb1 || sp.tail == 0,
                   "LB2 branches forward and cannot resume two-ended nodes");
    if (sp.lb < initial_ub) {
      live.push_back(NodeRef{sp.lb, core::pack_ends(sp.depth, sp.tail),
                             sh.arena.adopt(sp, main_lane)});
    } else {
      const LockGuard lock(sh.stats_mu);
      ++sh.stats.pruned;
    }
  }
  sh.in_flight.store(live.size(), std::memory_order_relaxed);
  sh.pool.distribute(std::move(live));

  {
    std::vector<std::thread> workers;
    workers.reserve(options.threads);
    for (std::size_t i = 0; i < options.threads; ++i) {
      if (options.bound == MtBound::kLb2) {
        // Per-worker two-smallest state lives inside the context: no
        // allocation and no sharing on the hot path.
        workers.emplace_back([&inst, &data, &sh, i, lb2 = sh.lb2] {
          worker(inst, data, sh, i,
                 fsp::Lb2BoundContext(inst, data, *lb2));
        });
      } else {
        workers.emplace_back([&inst, &data, &sh, i] {
          worker(inst, data, sh, i, fsp::Lb1BidirContext(inst, data));
        });
      }
    }
    for (auto& w : workers) w.join();
  }

  core::SolveResult result;
  {
    const LockGuard lock(sh.best_mu);
    result.best_makespan = sh.best_perm_makespan;
    result.best_permutation = std::move(sh.best_perm);
  }
  result.proven_optimal = !sh.stop.load(std::memory_order_acquire);
  const int latched = sh.stop_latch.load(std::memory_order_acquire);
  result.stop_reason = latched >= 0 ? static_cast<core::StopReason>(latched)
                                    : core::StopReason::kOptimal;
  {
    const LockGuard lock(sh.stats_mu);
    result.stats = sh.stats;
    result.steal = sh.steal_stats;
  }
  if (arena_audit != nullptr) {
    // Early stops leave unexplored nodes in the shards; release them so
    // the drain check distinguishes "still pooled" from "leaked".
    for (NodeRef& ref : sh.pool.drain()) {
      sh.arena.release(ref.slot, main_lane);
    }
    arena_audit->check_drained();
  }
  result.stats.wall_seconds = timer.seconds();
  // Per-worker mean, so bounding_fraction() is the share of a worker's
  // wall time spent bounding.
  result.stats.bounding_seconds /= static_cast<double>(options.threads);
  return result;
}

/// The root-solve prologue: the starting incumbent (NEH unless
/// overridden) with its seed schedule, plus the bounded root node.
struct RootStart {
  fsp::Time ub;
  std::vector<fsp::JobId> seed_perm;
  Subproblem root;
};

/// `lb2` non-null bounds the root with LB2, so the root's bound matches
/// what the workers will compute for its descendants.
RootStart make_root_start(const fsp::Instance& inst,
                          const fsp::LowerBoundData& data,
                          const std::optional<fsp::Time>& initial_ub,
                          const fsp::Lb2Data* lb2) {
  RootStart start;
  if (initial_ub.has_value()) {
    start.ub = *initial_ub;
  } else {
    fsp::NehResult neh = fsp::neh(inst);
    start.ub = neh.makespan;
    start.seed_perm = std::move(neh.permutation);
  }
  start.root = Subproblem::root(inst.jobs());
  start.root.lb =
      lb2 ? fsp::lb2_from_prefix(inst, data, *lb2, start.root.prefix())
          : fsp::lb1_from_prefix(inst, data, start.root.prefix());
  return start;
}

}  // namespace

core::SolveResult steal_solve(const fsp::Instance& inst,
                              const fsp::LowerBoundData& data,
                              const MtOptions& options) {
  std::unique_ptr<fsp::Lb2Data> lb2;
  if (options.bound == MtBound::kLb2) {
    lb2 = std::make_unique<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
  }
  RootStart start = make_root_start(inst, data, options.initial_ub, lb2.get());
  std::vector<Subproblem> initial;
  initial.push_back(std::move(start.root));
  return run(inst, data, std::move(initial), start.ub, options,
             std::move(start.seed_perm), lb2.get());
}

core::SolveResult steal_solve_from(const fsp::Instance& inst,
                                   const fsp::LowerBoundData& data,
                                   std::vector<core::Subproblem> initial,
                                   fsp::Time initial_ub,
                                   const MtOptions& options) {
  std::unique_ptr<fsp::Lb2Data> lb2;
  if (options.bound == MtBound::kLb2) {
    lb2 = std::make_unique<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
  }
  return run(inst, data, std::move(initial), initial_ub, options, {},
             lb2.get());
}

}  // namespace fsbb::mtbb
