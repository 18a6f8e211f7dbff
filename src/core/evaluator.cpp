#include "core/evaluator.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "fsp/makespan.h"

namespace fsbb::core {

void BoundEvaluator::evaluate_siblings(std::span<const SiblingBatch> groups) {
  // Fallback: materialize every child exactly as Subproblem::child() would
  // (prefix ++ free jobs, one swap) and route the flat batch through
  // evaluate(), so evaluators unaware of sibling structure — callback
  // bounds, the simulated GPU — behave byte-for-byte as before.
  std::vector<JobId> parent_perm;
  std::vector<Subproblem> children;
  for (const SiblingBatch& g : groups) {
    FSBB_CHECK_MSG(g.branching == Branching::kForward,
                   name() + " bounds forward sibling batches only");
    FSBB_CHECK(g.bounds.size() == g.next_jobs.size());
    // prefix ++ free jobs IS the parent's full permutation (see the
    // SiblingBatch contract), so child i follows the shared branch rule.
    parent_perm.assign(g.parent_prefix.begin(), g.parent_prefix.end());
    parent_perm.insert(parent_perm.end(), g.next_jobs.begin(),
                       g.next_jobs.end());
    children.clear();
    children.reserve(g.next_jobs.size());
    const auto depth = static_cast<std::int32_t>(g.parent_prefix.size());
    for (std::size_t i = 0; i < g.next_jobs.size(); ++i) {
      Subproblem child;
      child.perm.resize(parent_perm.size());
      write_child_perm(parent_perm, static_cast<std::size_t>(depth), i,
                       child.perm);
      child.depth = depth + 1;
      children.push_back(std::move(child));
    }
    evaluate(children);
    for (std::size_t i = 0; i < children.size(); ++i) {
      g.bounds[i] = children[i].lb;
    }
  }
}

SerialCpuEvaluator::SerialCpuEvaluator(const fsp::Instance& inst,
                                       const fsp::LowerBoundData& data)
    : inst_(&inst), data_(&data), scratch_(inst.jobs(), inst.machines()),
      context_(inst, data) {}

SerialCpuEvaluator::SerialCpuEvaluator(const fsp::Instance& inst,
                                       const fsp::LowerBoundData& data,
                                       fsp::Lb2Data lb2)
    : SerialCpuEvaluator(inst, data) {
  lb2_.emplace(std::move(lb2));
  lb2_scratch_.emplace(inst.jobs(), inst.machines());
  lb2_context_.emplace(inst, data, *lb2_);
}

namespace {

/// Bounds one sibling batch with `ctx` (Lb1BoundContext or
/// Lb2BoundContext, forward only) or, for a bidirectional batch, with
/// `bidir` (the head children, then the tail children).
template <typename Context>
void bound_group(Context& ctx, fsp::Lb1BidirContext* bidir,
                 const SiblingBatch& g) {
  const std::size_t r = g.next_jobs.size();
  if (g.branching == Branching::kBidirectional) {
    FSBB_CHECK(bidir != nullptr && g.bounds.size() == 2 * r);
    bidir->set_parent(g.parent_prefix, g.parent_tail);
    for (std::size_t i = 0; i < r; ++i) {
      g.bounds[i] = bidir->bound_head_child(g.next_jobs[i]);
    }
    for (std::size_t i = 0; i < r; ++i) {
      g.bounds[r + i] = bidir->bound_tail_child(g.next_jobs[i]);
    }
    return;
  }
  FSBB_CHECK(g.bounds.size() == r && g.parent_tail.empty());
  ctx.set_parent(g.parent_prefix);
  for (std::size_t i = 0; i < r; ++i) {
    g.bounds[i] = ctx.bound_child(g.next_jobs[i]);
  }
}

bool any_bidirectional(std::span<const SiblingBatch> groups) {
  for (const SiblingBatch& g : groups) {
    if (g.branching == Branching::kBidirectional) return true;
  }
  return false;
}

}  // namespace

void SerialCpuEvaluator::evaluate(std::span<Subproblem> batch) {
  const WallTimer timer;
  for (Subproblem& sp : batch) {
    FSBB_CHECK_MSG(sp.tail == 0, "flat batches bound forward nodes only");
    sp.lb = lb2_ ? fsp::lb2_from_prefix(*inst_, *data_, *lb2_, sp.prefix(),
                                        *lb2_scratch_)
                 : fsp::lb1_from_prefix(*inst_, *data_, sp.prefix(), scratch_);
  }
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

void SerialCpuEvaluator::evaluate_siblings(
    std::span<const SiblingBatch> groups) {
  const WallTimer timer;
  std::size_t nodes = 0;
  if (!lb2_ && !bidir_context_ && any_bidirectional(groups)) {
    bidir_context_.emplace(*inst_, *data_);
  }
  fsp::Lb1BidirContext* bidir = bidir_context_ ? &*bidir_context_ : nullptr;
  for (const SiblingBatch& g : groups) {
    if (lb2_context_) {
      bound_group(*lb2_context_, bidir, g);
    } else {
      bound_group(context_, bidir, g);
    }
    nodes += g.bounds.size();
  }
  ++ledger_.batches;
  ledger_.nodes += nodes;
  ledger_.wall_seconds += timer.seconds();
}

ThreadedCpuEvaluator::ThreadedCpuEvaluator(const fsp::Instance& inst,
                                           const fsp::LowerBoundData& data,
                                           std::size_t threads)
    : inst_(&inst), data_(&data), pool_(threads) {
  // Per-worker scratch/context, built once: evaluate() used to reallocate
  // these vectors on every batch, which showed up in the bounding profile.
  scratch_.reserve(pool_.thread_count() + 1);
  contexts_.reserve(pool_.thread_count() + 1);
  for (std::size_t i = 0; i <= pool_.thread_count(); ++i) {
    scratch_.emplace_back(inst.jobs(), inst.machines());
    contexts_.emplace_back(inst, data);
  }
}

ThreadedCpuEvaluator::ThreadedCpuEvaluator(const fsp::Instance& inst,
                                           const fsp::LowerBoundData& data,
                                           fsp::Lb2Data lb2,
                                           std::size_t threads)
    : inst_(&inst), data_(&data), pool_(threads) {
  lb2_.emplace(std::move(lb2));
  lb2_scratch_.reserve(pool_.thread_count() + 1);
  lb2_contexts_.reserve(pool_.thread_count() + 1);
  for (std::size_t i = 0; i <= pool_.thread_count(); ++i) {
    lb2_scratch_.emplace_back(inst.jobs(), inst.machines());
    lb2_contexts_.emplace_back(inst, data, *lb2_);
  }
}

std::string ThreadedCpuEvaluator::name() const {
  // Deliberately excludes the thread count: bounds are bit-identical for
  // any pool size, and reports/golden tests must not vary by machine.
  // threads() still exposes the actual pool size.
  return lb2_ ? "lb2-threads" : "cpu-threads";
}

void ThreadedCpuEvaluator::evaluate(std::span<Subproblem> batch) {
  const WallTimer timer;
  pool_.parallel_for(
      0, batch.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        for (std::size_t i = lo; i < hi; ++i) {
          FSBB_CHECK_MSG(batch[i].tail == 0,
                         "flat batches bound forward nodes only");
          batch[i].lb =
              lb2_ ? fsp::lb2_from_prefix(*inst_, *data_, *lb2_,
                                          batch[i].prefix(),
                                          lb2_scratch_[worker])
                   : fsp::lb1_from_prefix(*inst_, *data_, batch[i].prefix(),
                                          scratch_[worker]);
        }
      });
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

void ThreadedCpuEvaluator::evaluate_siblings(
    std::span<const SiblingBatch> groups) {
  const WallTimer timer;
  std::size_t nodes = 0;
  for (const SiblingBatch& g : groups) nodes += g.bounds.size();
  if (!lb2_ && bidir_contexts_.empty() && any_bidirectional(groups)) {
    bidir_contexts_.reserve(contexts_.size());
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      bidir_contexts_.emplace_back(*inst_, *data_);
    }
  }
  pool_.parallel_for(
      0, groups.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        fsp::Lb1BidirContext* bidir =
            bidir_contexts_.empty() ? nullptr : &bidir_contexts_[worker];
        for (std::size_t gi = lo; gi < hi; ++gi) {
          if (lb2_) {
            bound_group(lb2_contexts_[worker], bidir, groups[gi]);
          } else {
            bound_group(contexts_[worker], bidir, groups[gi]);
          }
        }
      },
      // One chunk per group: chunks are claimed dynamically, so uneven
      // group sizes still balance across the pool.
      groups.size());
  ++ledger_.batches;
  ledger_.nodes += nodes;
  ledger_.wall_seconds += timer.seconds();
}

}  // namespace fsbb::core
