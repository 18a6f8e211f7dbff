// The bounding operator as a batch interface.
//
// The paper's "Type 1" parallelism is exactly this seam: the engine hands a
// pool (batch) of sub-problems to a BoundEvaluator, which fills in each
// node's lower bound. Implementations: serial CPU (this file), pooled host
// threads (this file), and the simulated GPU (gpubb/gpu_evaluator.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/threadpool.h"
#include "common/timer.h"
#include "core/steal_stats.h"
#include "core/subproblem.h"
#include "fsp/instance.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "fsp/lb_data.h"

namespace fsbb::core {

/// Running totals an evaluator keeps about the bounding work done.
struct EvalLedger {
  std::uint64_t batches = 0;
  std::uint64_t nodes = 0;
  double wall_seconds = 0;  ///< measured host time inside evaluate()
};

/// One parent's children, described without materializing them: the child
/// scheduling next_jobs[i] is exactly parent.child(i), because an engine
/// only bounds incomplete children and those exist precisely when ALL of
/// the parent's free jobs spawn one child each. parent_prefix, next_jobs
/// and parent_tail therefore concatenate to the parent's full permutation.
///
/// `branching` says which ends the batch extends. kForward: one bound per
/// head child. kBidirectional: the r head children's bounds, then the r
/// tail children's (tail child i moves next_jobs[i] in front of the tail),
/// all under the two-sided bound (fsp::Lb1BidirContext) — the engine then
/// keeps one end per parent (choose_branch_end).
struct SiblingBatch {
  std::span<const JobId> parent_prefix;  ///< the parent's head
  std::span<const JobId> next_jobs;      ///< the parent's free jobs, in order
  std::span<Time> bounds;                ///< out: one LB per child
  std::span<const JobId> parent_tail = {};  ///< the parent's tail
  Branching branching = Branching::kForward;
};

/// One parent in a resident-pool offload iteration. `perm` is the parent's
/// FULL permutation ([0, depth) scheduled, the rest the free jobs in
/// order); children are the free jobs expanded in order, exactly like
/// SiblingBatch. `ticket` identifies the parent's resident payload inside
/// the evaluator's pool — kNullTicket means the parent is not resident and
/// the evaluator must refill it from `perm` (priced as a full node upload).
struct ResidentGroup {
  static constexpr std::uint32_t kNullTicket = 0xFFFFFFFFu;

  std::uint32_t ticket = kNullTicket;    ///< resident parent, or refill
  std::span<const JobId> perm;           ///< parent's full permutation
  std::int32_t depth = 0;                ///< parent depth
  std::span<Time> bounds;                ///< out: one LB per child
  std::span<std::uint32_t> child_tickets;  ///< out: resident child payloads
                                           ///< (kNullTicket when not kept)
};

/// Evaluator-owned resident node store (Chakroun & Melab's device-resident
/// per-SM pools). The engine drives offload iterations against it: node
/// payloads stay inside the pool, only tickets, incumbents and bounds cross
/// the seam. Tickets are owned by the engine once iterate() returns them:
/// every non-null parent and child ticket must eventually be release()d.
class ResidentPool {
 public:
  static constexpr std::uint32_t kNullTicket = ResidentGroup::kNullTicket;

  virtual ~ResidentPool() = default;

  /// One select→branch→bound offload iteration: derives every group's
  /// children from its resident parent payload (or the refill `perm`),
  /// bounds them, fills bounds/child_tickets. `ub` is the host incumbent,
  /// shipped down so the device side is never stale. Parent tickets are
  /// still valid afterwards (the engine releases them).
  virtual void iterate(Time ub, std::span<ResidentGroup> groups) = 0;

  /// Frees a resident payload (host-side bookkeeping; no device traffic).
  virtual void release(std::uint32_t ticket) = 0;

  /// Per-shard occupancy/steal/refill counters, for SolveReport.
  virtual ResidentPoolStats shard_stats() const = 0;
};

/// One root subtree handed to a SubtreeDfs launch. `perm` is the node's
/// FULL permutation ([0, depth) scheduled, free jobs after, exactly the
/// arena layout); `lb` is its already-computed lower bound — the launch
/// performs the lazy pop-time elimination check itself, at the exact
/// point in the exploration order a serial engine would.
struct DfsRoot {
  std::span<const JobId> perm;
  std::int32_t depth = 0;
  Time lb = 0;
};

/// Incumbent improvement discovered inside a DFS launch, in discovery
/// order. The counter fields are the launch-LOCAL totals at the moment of
/// the improvement, so the host replays SearchControl::emit_incumbent with
/// exact running totals (pre-launch base + these deltas) — keeping the
/// incumbent stream bit-identical to cpu-serial.
struct DfsIncumbentEvent {
  Time makespan = 0;
  std::vector<JobId> permutation;  ///< the complete schedule
  std::uint64_t branched = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
};

/// Per-launch operator counters (launch-local; the engine adds them to
/// EngineStats). Semantics match the serial engine exactly: branched
/// counts expanded nodes, generated their children, evaluated the bounded
/// (incomplete) children, pruned both pop-time and insert-time
/// eliminations, leaves the complete schedules reached.
struct DfsLaunchStats {
  std::uint64_t branched = 0;
  std::uint64_t generated = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t leaves = 0;
};

/// Outcome of one SubtreeDfs launch.
struct DfsLaunchResult {
  DfsLaunchStats stats;
  std::vector<DfsIncumbentEvent> incumbents;  ///< in discovery order
  /// Live nodes surfaced by the expansion-quota interrupt, in the exact
  /// order a serial depth-first engine would pop them next (deepest
  /// pending sibling first). Empty when every started subtree exhausted.
  std::vector<Subproblem> surfaced;
  /// Roots [0, roots_started) were consumed (explored, pruned, or
  /// surfaced through `surfaced`); roots [roots_started, roots.size())
  /// were never begun and must return to the pool untouched.
  std::size_t roots_started = 0;
};

/// Evaluator-owned per-thread iterative DFS (the device-side search mode,
/// gpubb/dfs_pool.h). Each launch explores one subtree per device lane —
/// select, branch and bound fused inside the kernel, the incumbent checked
/// between expansions — and only surfaces work at subtree exhaustion or
/// when the expansion quota (host-initiated recall) interrupts it. The
/// exploration order, elimination points and counters are bit-identical to
/// a serial depth-first engine with batch_size 1 — a fuzzed invariant.
class SubtreeDfs {
 public:
  virtual ~SubtreeDfs() = default;

  /// Subtree lanes one launch can run (the device thread budget).
  virtual std::size_t max_roots() const = 0;

  /// Default expansion quota per launch — the recall granularity at which
  /// control returns to the host (stop checks, pool rebalancing).
  virtual std::uint64_t launch_expansions() const = 0;

  /// Runs one fused DFS launch over `roots` (each lane owns one subtree,
  /// explored in root order) with shared incumbent `ub`, interrupting
  /// after `max_expansions` nodes have been branched.
  virtual DfsLaunchResult run_subtrees(Time ub, std::span<const DfsRoot> roots,
                                       std::uint64_t max_expansions) = 0;
};

/// Batch lower-bound evaluator. Implementations must be deterministic:
/// identical batches yield identical bounds regardless of thread count.
class BoundEvaluator {
 public:
  virtual ~BoundEvaluator() = default;

  /// Fills sp.lb for every node in the batch.
  virtual void evaluate(std::span<Subproblem> batch) = 0;

  /// True when evaluate_siblings exploits the shared parent state; the
  /// engine then groups children by parent instead of materializing one
  /// flat Subproblem batch.
  virtual bool supports_sibling_batches() const { return false; }

  /// Bounds every group's children given their common parent. The default
  /// materializes the children and routes them through evaluate(), so
  /// callback/GPU evaluators work unchanged; the CPU evaluators override
  /// it with the O(m)-incremental Lb1BoundContext path. Bounds are
  /// bit-identical between the two paths — a tested invariant. Only the
  /// CPU evaluators under LB1 bound bidirectional batches; the default
  /// rejects them.
  virtual void evaluate_siblings(std::span<const SiblingBatch> groups);

  /// Non-null when this evaluator keeps node payloads resident in its own
  /// memory; the engine then drives ResidentPool::iterate() offload
  /// iterations instead of flat evaluate() batches. Takes precedence over
  /// the sibling seam. The pool's bounds are bit-identical to evaluate()'s
  /// — the engine's search (and so every EngineStats counter) is unchanged.
  virtual ResidentPool* resident_pool() { return nullptr; }

  /// Non-null when this evaluator runs whole subtrees device-side through
  /// per-thread iterative DFS launches; the engine then drives
  /// SubtreeDfs::run_subtrees() instead of per-level bounding batches.
  /// Takes precedence over resident_pool() and the sibling seam. Requires
  /// SelectionStrategy::kDepthFirst (the launch IS a depth-first
  /// exploration); counters stay bit-identical to cpu-serial.
  virtual SubtreeDfs* subtree_dfs() { return nullptr; }

  virtual std::string name() const = 0;
  virtual const EvalLedger& ledger() const = 0;
};

/// Serial CPU evaluator applying LB1 node by node. Sibling batches take
/// the incremental context (the two-sided one for bidirectional batches,
/// built on first use); flat batches replay each prefix.
class SerialCpuEvaluator final : public BoundEvaluator {
 public:
  SerialCpuEvaluator(const fsp::Instance& inst, const fsp::LowerBoundData& data);
  /// LB2 variant: owns the head/tail tables; bounds via the incremental
  /// fsp::Lb2BoundContext on the sibling seam, lb2_from_prefix otherwise.
  SerialCpuEvaluator(const fsp::Instance& inst, const fsp::LowerBoundData& data,
                     fsp::Lb2Data lb2);

  void evaluate(std::span<Subproblem> batch) override;
  bool supports_sibling_batches() const override { return true; }
  void evaluate_siblings(std::span<const SiblingBatch> groups) override;
  /// "lb2-serial" in LB2 mode, keeping report strings stable across the
  /// CallbackEvaluator it replaced.
  std::string name() const override { return lb2_ ? "lb2-serial" : "cpu-serial"; }
  const EvalLedger& ledger() const override { return ledger_; }

 private:
  const fsp::Instance* inst_;
  const fsp::LowerBoundData* data_;
  fsp::Lb1Scratch scratch_;
  fsp::Lb1BoundContext context_;
  std::optional<fsp::Lb1BidirContext> bidir_context_;  // on first use
  // Engaged together in LB2 mode; context_/scratch_ are then unused.
  std::optional<fsp::Lb2Data> lb2_;
  std::optional<fsp::Lb2Scratch> lb2_scratch_;
  std::optional<fsp::Lb2BoundContext> lb2_context_;
  EvalLedger ledger_;
};

/// Serial evaluator around an arbitrary bound callback — the hook for
/// alternative lower bounds (LB0, LB2, ...) without touching the engine.
/// The callback must be deterministic and thread-compatible.
class CallbackEvaluator final : public BoundEvaluator {
 public:
  using BoundFn = std::function<Time(const Subproblem&)>;

  CallbackEvaluator(std::string name, BoundFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  void evaluate(std::span<Subproblem> batch) override {
    const WallTimer timer;
    for (Subproblem& sp : batch) {
      sp.lb = fn_(sp);
    }
    ++ledger_.batches;
    ledger_.nodes += batch.size();
    ledger_.wall_seconds += timer.seconds();
  }

  std::string name() const override { return name_; }
  const EvalLedger& ledger() const override { return ledger_; }

 private:
  std::string name_;
  BoundFn fn_;
  EvalLedger ledger_;
};

/// Multi-threaded CPU evaluator: the batch is split across a thread pool,
/// one LB per node, results written in place (no cross-thread interaction,
/// hence bit-identical to the serial evaluator).
class ThreadedCpuEvaluator final : public BoundEvaluator {
 public:
  /// threads == 0 picks hardware concurrency.
  ThreadedCpuEvaluator(const fsp::Instance& inst,
                       const fsp::LowerBoundData& data, std::size_t threads = 0);
  /// LB2 variant: owns the head/tail tables; per-worker incremental
  /// fsp::Lb2BoundContext on the sibling seam, lb2_from_prefix otherwise.
  ThreadedCpuEvaluator(const fsp::Instance& inst,
                       const fsp::LowerBoundData& data, fsp::Lb2Data lb2,
                       std::size_t threads = 0);

  void evaluate(std::span<Subproblem> batch) override;
  bool supports_sibling_batches() const override { return true; }
  /// Whole sibling groups are the unit of parallelism: each worker binds
  /// its incremental context to a group's parent once and bounds all of
  /// that parent's children, so the per-parent setup is never repeated.
  void evaluate_siblings(std::span<const SiblingBatch> groups) override;
  std::string name() const override;
  const EvalLedger& ledger() const override { return ledger_; }
  std::size_t threads() const { return pool_.thread_count(); }

 private:
  const fsp::Instance* inst_;
  const fsp::LowerBoundData* data_;
  ThreadPool pool_;
  // Per-worker state, hoisted out of evaluate(): worker_index may also be
  // thread_count() (the calling thread participates), hence + 1.
  std::vector<fsp::Lb1Scratch> scratch_;
  std::vector<fsp::Lb1BoundContext> contexts_;
  std::vector<fsp::Lb1BidirContext> bidir_contexts_;  // on first use
  // Engaged together in LB2 mode; the LB1 vectors above are then empty.
  std::optional<fsp::Lb2Data> lb2_;
  std::vector<fsp::Lb2Scratch> lb2_scratch_;
  std::vector<fsp::Lb2BoundContext> lb2_contexts_;
  EvalLedger ledger_;
};

}  // namespace fsbb::core
