// Branch-and-bound node for the permutation flow-shop.
//
// A node is a complete permutation laid out as [head][free][tail]: the first
// `depth` entries are the fixed scheduled prefix, the last `tail` entries
// the fixed scheduled suffix, and the middle is the free-job set in an
// arbitrary order. Forward branching (paper Fig. 1) swaps each free job
// into position `depth`: child i schedules free job i next. Bidirectional
// branching (Potts 1980; Gmys 2020) may instead extend the tail, swapping
// each free job into the last free position; choose_branch_end below picks
// the end per node. Forward-only engines keep tail == 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "fsp/instance.h"

namespace fsbb::core {

using fsp::JobId;
using fsp::Time;

/// One sub-problem (tree node).
struct Subproblem {
  /// Sentinel: the node has not been through the bounding operator yet.
  static constexpr Time kUnevaluated = -1;

  std::vector<JobId> perm;  ///< full permutation: [head][free][tail]
  std::int32_t depth = 0;   ///< jobs fixed at the front: perm[0, depth)
  std::int32_t tail = 0;    ///< jobs fixed at the back: perm[n - tail, n)
  Time lb = kUnevaluated;   ///< lower bound on any completion of the node

  /// The root node: empty prefix over n jobs (identity free order).
  static Subproblem root(int jobs);

  int jobs() const { return static_cast<int>(perm.size()); }
  /// Jobs fixed at either end (the node's level in the tree).
  int fixed() const { return depth + tail; }
  int remaining() const { return jobs() - depth - tail; }
  bool is_complete() const { return remaining() == 0; }

  std::span<const JobId> prefix() const {
    return {perm.data(), static_cast<std::size_t>(depth)};
  }
  std::span<const JobId> free_jobs() const {
    return {perm.data() + depth, static_cast<std::size_t>(remaining())};
  }
  std::span<const JobId> suffix() const {
    return {perm.data() + depth + remaining(), static_cast<std::size_t>(tail)};
  }

  /// Child that schedules free_jobs()[i] next. The free-job order of the
  /// child is the parent's with one swap (write_child_perm) — deterministic.
  Subproblem child(int i) const;
};

/// How an engine branches: forward extends the head only (every device
/// lane, LB2 and the callback evaluators); bidirectional extends the head
/// or the tail, chosen per node by choose_branch_end (the LB1 host
/// engines).
enum class Branching { kForward, kBidirectional };

/// The end of a two-ended node a child extends.
enum class BranchEnd { kHead, kTail };

/// NodeRef packs a node's head and tail counts into one 32-bit field
/// (head in the low half, tail in the high half), so forward nodes keep
/// packed == depth. Instance::kMaxDimension (32767) bounds both.
constexpr std::int32_t pack_ends(int head, int tail) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(head) |
                                   (static_cast<std::uint32_t>(tail) << 16));
}
constexpr int packed_head(std::int32_t packed) {
  return static_cast<int>(static_cast<std::uint32_t>(packed) & 0xFFFFu);
}
constexpr int packed_tail(std::int32_t packed) {
  return static_cast<int>(static_cast<std::uint32_t>(packed) >> 16);
}

/// The branching rule, single-sourced: the head child i of a node with
/// `depth` head jobs is the parent's permutation with positions depth and
/// depth+i swapped. Every expansion site (the serial engine, cpu-steal,
/// the evaluator fallback, the device lanes) must write children with this
/// exact rule — the cross-backend bit-identity the differential-fuzz suite
/// pins depends on it. Free job i sits at position depth+i.
inline void write_child_perm(std::span<const JobId> parent_perm,
                             std::size_t depth, std::size_t i,
                             std::span<JobId> out) {
  FSBB_ASSERT(out.size() == parent_perm.size());
  FSBB_ASSERT(depth + i < parent_perm.size());
  std::copy(parent_perm.begin(), parent_perm.end(), out.begin());
  std::swap(out[depth], out[depth + i]);
}

/// The tail twin of write_child_perm: tail child i moves free job i (at
/// position depth+i) into the last free position n-1-tail.
inline void write_tail_child_perm(std::span<const JobId> parent_perm,
                                  std::size_t depth, std::size_t tail,
                                  std::size_t i, std::span<JobId> out) {
  FSBB_ASSERT(out.size() == parent_perm.size());
  FSBB_ASSERT(depth + i + tail < parent_perm.size());
  std::copy(parent_perm.begin(), parent_perm.end(), out.begin());
  std::swap(out[depth + i], out[parent_perm.size() - 1 - tail]);
}

/// Writes child i of the given end of a node with `head`/`tail` fixed jobs
/// (write_child_perm or write_tail_child_perm) and returns the child's
/// packed ends.
inline std::int32_t write_end_child(std::span<const JobId> parent_perm,
                                    int head, int tail, BranchEnd end,
                                    std::size_t i, std::span<JobId> out) {
  const auto h = static_cast<std::size_t>(head);
  if (end == BranchEnd::kHead) {
    write_child_perm(parent_perm, h, i, out);
    return pack_ends(head + 1, tail);
  }
  write_tail_child_perm(parent_perm, h, static_cast<std::size_t>(tail), i,
                        out);
  return pack_ends(head, tail + 1);
}

/// The end choice (after Gmys 2020's MinBranch): given the bounds of a
/// node's head children and of its tail children (child i of either end
/// moves free job i), keep the end whose children below `ub` leave the
/// smaller total gap sum(ub - lb) — fewer survivors, and survivors nearer
/// to being pruned, both make an end cheaper. While neither end prunes a
/// child (a weak incumbent) that sum only ranks the ends by their bound
/// sums, which grows the tree on job-correlated inputs; then keep the end
/// whose weakest child bound is higher. Ties keep the head. The choice
/// depends only on the node and the incumbent, so under a fixed incumbent
/// every engine grows the same tree whatever its search order.
inline BranchEnd choose_branch_end(std::span<const Time> head_lbs,
                                   std::span<const Time> tail_lbs, Time ub) {
  FSBB_ASSERT(head_lbs.size() == tail_lbs.size());
  FSBB_ASSERT(!head_lbs.empty());
  bool pruned = false;
  std::int64_t head_gap = 0, tail_gap = 0;  // n gaps overflow a Time
  Time head_min = head_lbs[0], tail_min = tail_lbs[0];
  for (std::size_t i = 0; i < head_lbs.size(); ++i) {
    pruned = pruned || head_lbs[i] >= ub || tail_lbs[i] >= ub;
    head_gap += head_lbs[i] < ub ? std::int64_t{ub} - head_lbs[i] : 0;
    tail_gap += tail_lbs[i] < ub ? std::int64_t{ub} - tail_lbs[i] : 0;
    head_min = std::min(head_min, head_lbs[i]);
    tail_min = std::min(tail_min, tail_lbs[i]);
  }
  if (!pruned) return tail_min > head_min ? BranchEnd::kTail : BranchEnd::kHead;
  return tail_gap < head_gap ? BranchEnd::kTail : BranchEnd::kHead;
}

inline Subproblem Subproblem::root(int jobs) {
  FSBB_CHECK(jobs >= 1);
  Subproblem r;
  r.perm.resize(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) r.perm[static_cast<std::size_t>(j)] = static_cast<JobId>(j);
  r.depth = 0;
  return r;
}

inline Subproblem Subproblem::child(int i) const {
  FSBB_ASSERT(i >= 0 && i < remaining());
  Subproblem c;
  c.perm.resize(perm.size());
  write_child_perm(perm, static_cast<std::size_t>(depth),
                   static_cast<std::size_t>(i), c.perm);
  c.depth = depth + 1;
  c.tail = tail;
  c.lb = kUnevaluated;
  return c;
}

}  // namespace fsbb::core
