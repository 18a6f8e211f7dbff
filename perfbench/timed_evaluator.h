// TimedEvaluator — the benchmark's BoundEvaluator decorator.
//
// Wraps the evaluator a backend would own and forwards every seam call to
// it (flat batches, sibling batches, resident-pool iterations, device DFS
// launches), timing each call from outside. That is where the benchmark's
// bounding-layer numbers come from: the engine's own
// EngineStats::bounding_seconds is wall time on the threaded engines and
// SolveReport carries no modeled device time, so neither is used.
//
// The first `keep_spans` calls per solve become trace spans; later calls
// are only counted, and their time is charged to the solve span as
// untraced child time. The first `keep_batches` sibling batches are copied
// (parent prefix, free jobs, bounds) for the Lb1BoundContext replay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "trace.h"

namespace perfbench {

struct BoundCounters {
  std::uint64_t calls = 0;
  std::uint64_t nodes = 0;
  std::int64_t busy_ns = 0;
};

struct RecordedBatch {
  std::vector<fsbb::fsp::JobId> prefix;
  std::vector<fsbb::fsp::JobId> next_jobs;
  std::vector<fsbb::fsp::Time> bounds;
};

class TimedEvaluator final : public fsbb::core::BoundEvaluator,
                             public fsbb::core::ResidentPool,
                             public fsbb::core::SubtreeDfs {
 public:
  /// `solve_span` is the trace index of the enclosing solve span (ignored
  /// when tracing is off); `cat` names the layer the calls land in.
  TimedEvaluator(fsbb::core::BoundEvaluator& inner, Trace& trace,
                 std::size_t solve_span, const char* cat,
                 std::size_t keep_spans = 200, std::size_t keep_batches = 0)
      : inner_(inner),
        resident_(inner.resident_pool()),
        dfs_(inner.subtree_dfs()),
        trace_(trace),
        solve_span_(solve_span),
        cat_(cat),
        keep_spans_(keep_spans),
        keep_batches_(keep_batches) {}

  const BoundCounters& counters() const { return counters_; }
  const std::vector<RecordedBatch>& recorded() const { return recorded_; }

  // --- core::BoundEvaluator -----------------------------------------------
  void evaluate(std::span<fsbb::core::Subproblem> batch) override {
    timed("evaluate", batch.size(), [&] { inner_.evaluate(batch); });
  }
  bool supports_sibling_batches() const override {
    return inner_.supports_sibling_batches();
  }
  void evaluate_siblings(
      std::span<const fsbb::core::SiblingBatch> groups) override {
    std::uint64_t nodes = 0;
    for (const auto& g : groups) nodes += g.bounds.size();
    timed("evaluate_siblings", nodes,
          [&] { inner_.evaluate_siblings(groups); });
    for (const auto& g : groups) {
      if (recorded_.size() >= keep_batches_) break;
      recorded_.push_back(
          {{g.parent_prefix.begin(), g.parent_prefix.end()},
           {g.next_jobs.begin(), g.next_jobs.end()},
           {g.bounds.begin(), g.bounds.end()}});
    }
  }
  fsbb::core::ResidentPool* resident_pool() override {
    return resident_ != nullptr ? this : nullptr;
  }
  fsbb::core::SubtreeDfs* subtree_dfs() override {
    return dfs_ != nullptr ? this : nullptr;
  }
  std::string name() const override { return inner_.name(); }
  const fsbb::core::EvalLedger& ledger() const override {
    return inner_.ledger();
  }

  // --- core::ResidentPool -------------------------------------------------
  void iterate(fsbb::fsp::Time ub,
               std::span<fsbb::core::ResidentGroup> groups) override {
    std::uint64_t nodes = 0;
    for (const auto& g : groups) nodes += g.bounds.size();
    timed("resident_iterate", nodes,
          [&] { resident_->iterate(ub, groups); });
  }
  void release(std::uint32_t ticket) override {
    resident_->release(ticket);
  }
  fsbb::core::ResidentPoolStats shard_stats() const override {
    return resident_->shard_stats();
  }

  // --- core::SubtreeDfs ---------------------------------------------------
  std::size_t max_roots() const override { return dfs_->max_roots(); }
  std::uint64_t launch_expansions() const override {
    return dfs_->launch_expansions();
  }
  fsbb::core::DfsLaunchResult run_subtrees(
      fsbb::fsp::Time ub, std::span<const fsbb::core::DfsRoot> roots,
      std::uint64_t max_expansions) override {
    const std::int64_t t0 = now_ns();
    fsbb::core::DfsLaunchResult result =
        dfs_->run_subtrees(ub, roots, max_expansions);
    record("dfs_launch", result.stats.evaluated, t0, now_ns() - t0);
    return result;
  }

 private:
  template <typename Fn>
  void timed(const char* name, std::uint64_t nodes, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    record(name, nodes, t0, now_ns() - t0);
  }

  void record(const char* name, std::uint64_t nodes, std::int64_t t0,
              std::int64_t dur) {
    ++counters_.calls;
    counters_.nodes += nodes;
    counters_.busy_ns += dur;
    if (!trace_.enabled()) return;
    if (spans_kept_ < keep_spans_) {
      ++spans_kept_;
      trace_.add_child(name, cat_, t0, dur);
    } else {
      trace_.add_untraced_child_ns(solve_span_, dur);
    }
  }

  fsbb::core::BoundEvaluator& inner_;
  fsbb::core::ResidentPool* resident_;  ///< inner's pool, if resident
  fsbb::core::SubtreeDfs* dfs_;         ///< inner's DFS seam, if any
  Trace& trace_;
  std::size_t solve_span_;
  const char* cat_;
  std::size_t keep_spans_;
  std::size_t keep_batches_;
  std::size_t spans_kept_ = 0;
  BoundCounters counters_;
  std::vector<RecordedBatch> recorded_;
};

}  // namespace perfbench
