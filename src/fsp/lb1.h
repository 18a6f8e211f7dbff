// LB1 — the Lageweg–Lenstra–Rinnooy Kan two-machine lower bound (paper §II-C
// and Fig. 2), generalized over a data provider so the exact same arithmetic
// runs on the CPU (plain arrays) and inside the simulated GPU kernel
// (access-counting device buffers). Bit-exactness between the two is a
// tested invariant.
//
// Provider concept P:
//   int    jobs()  / machines() / pairs()
//   JobId  jm(pair, pos)      Johnson order entry
//   Time   lm(job, pair)      lag
//   Time   ptm(job, machine)  processing time
//   Time   rm(machine)        static head minimum
//   Time   qm(machine)        static tail minimum
//   int    mm_k(pair) / mm_l(pair)
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "fsp/instance.h"
#include "fsp/lb_data.h"

namespace fsbb::fsp {

/// Core LB1 sweep. `fronts` (size m) are the machine completion times of the
/// scheduled prefix; `scheduled[j]` != 0 marks scheduled jobs. Valid for any
/// prefix, including complete schedules where it returns the exact makespan.
template <typename P>
Time lb1_evaluate(const P& p, std::span<const Time> fronts,
                  std::span<const std::uint8_t> scheduled) {
  Time lb = 0;
  const int n = p.jobs();
  const int n_pairs = p.pairs();
  for (int s = 0; s < n_pairs; ++s) {
    const int k = p.mm_k(s);
    const int l = p.mm_l(s);
    // Machine k is held by the prefix until fronts[k]; no unscheduled job
    // can arrive at k before the head minimum rm(k). Both are valid lower
    // bounds on the start, so their max is too (same for l).
    Time t1 = std::max(fronts[static_cast<std::size_t>(k)], p.rm(k));
    Time t2 = std::max(fronts[static_cast<std::size_t>(l)], p.rm(l));
    for (int i = 0; i < n; ++i) {
      const JobId job = p.jm(s, i);
      if (!scheduled[static_cast<std::size_t>(job)]) {
        t1 += p.ptm(job, k);
        const Time arrival = t1 + p.lm(job, s);
        t2 = (t2 > arrival ? t2 : arrival) + p.ptm(job, l);
      }
    }
    t2 += p.qm(l);
    lb = std::max(lb, t2);
  }
  return lb;
}

/// Plain-array provider over a host LowerBoundData.
class HostLb1Provider {
 public:
  explicit HostLb1Provider(const LowerBoundData& d) : d_(&d) {}

  int jobs() const { return d_->jobs(); }
  int machines() const { return d_->machines(); }
  int pairs() const { return d_->pairs(); }
  JobId jm(int pair, int pos) const { return d_->jm(pair, pos); }
  Time lm(int job, int pair) const { return d_->lm(job, pair); }
  Time ptm(int job, int machine) const { return d_->ptm(job, machine); }
  Time rm(int machine) const { return d_->rm(machine); }
  Time qm(int machine) const { return d_->qm(machine); }
  int mm_k(int pair) const { return d_->mm(pair).k; }
  int mm_l(int pair) const { return d_->mm(pair).l; }

 private:
  const LowerBoundData* d_;
};

/// Reusable scratch (fronts + scheduled mask) so hot loops do not allocate.
class Lb1Scratch {
 public:
  Lb1Scratch(int jobs, int machines)
      : fronts_(static_cast<std::size_t>(machines)),
        scheduled_(static_cast<std::size_t>(jobs)) {}

  std::span<Time> fronts() { return fronts_; }
  std::span<std::uint8_t> scheduled() { return scheduled_; }

 private:
  std::vector<Time> fronts_;
  std::vector<std::uint8_t> scheduled_;
};

/// The machine-couple lanes both incremental LB1 contexts sweep. Static
/// per instance: each couple s = (k, l)'s machines and their head (RM) and
/// tail (QM) minima, one lane per couple. Rebuilt per parent by pack():
/// each couple's Johnson order compacted to the parent's free jobs and
/// laid out position-major ([i * pairs + s]: the job at compacted position
/// i of couple s, its times on k and on l, and its lag), so a sibling's
/// sweep is a branch-free, unit-stride loop across couples.
struct Lb1CoupleLanes {
  explicit Lb1CoupleLanes(const LowerBoundData& data);

  /// Compacts every couple's Johnson order to the jobs with scheduled[j]
  /// == 0 and returns how many there are.
  int pack(const LowerBoundData& data, std::span<const std::uint8_t> scheduled);

  std::vector<int> mk, ml;
  std::vector<Time> rmk, rml, qmk, qml;
  std::vector<Time> job, p1, p2, lag;
  /// Per-child accumulators, one per couple.
  std::vector<Time> t1, t2;
};

/// Incremental sibling-batch LB1 (the hot path of every CPU backend).
///
/// A branch-and-bound node's children share the parent's scheduled prefix,
/// so everything the per-node replay recomputes — machine fronts, the
/// scheduled mask, and the scheduled entries the Johnson sweep has to skip
/// — can be computed once per parent and reused for every sibling:
///
///   set_parent(prefix)   replays the prefix once (O(depth m)) and compacts
///                        each machine couple's Johnson order down to the
///                        unscheduled jobs (O(pairs n));
///   bound_child(job)     extends a copy of the parent fronts by one job
///                        (O(m)) and sweeps only the remaining jobs
///                        (O(pairs (n - depth)) instead of O(pairs n)).
///
/// The sweep visits the surviving jobs in the same Johnson order and does
/// the same arithmetic as lb1_evaluate on the child's full state, so the
/// bounds are bit-identical to lb1_from_prefix — a tested invariant.
///
/// The hot sweep is vectorized ACROSS machine couples: the per-couple
/// Johnson recurrence is sequential in the position axis (t1 accumulates,
/// t2 chains through a max), but at any fixed position every couple
/// updates independently. set_parent therefore lays the compacted rows
/// out position-major ([position][couple], couple index contiguous) with
/// the ptm/lag table entries pre-gathered, and bound_child runs a
/// branchless position-outer/couple-inner loop over parallel t1[]/t2[]
/// accumulators — the "skip the child's job" branch becomes a 0/1
/// multiplier, so the inner loop auto-vectorizes. bound_child_reference
/// keeps the scalar couple-outer sweep; the two are bit-identical (the
/// keep-mask form performs exactly the same adds and maxes per couple, in
/// the same position order) — a tested invariant.
class Lb1BoundContext {
 public:
  Lb1BoundContext(const Instance& inst, const LowerBoundData& data);

  /// Binds the parent whose children are about to be bounded.
  void set_parent(std::span<const JobId> prefix);

  /// LB1 of the child scheduling `job` next. `job` must be one of the
  /// parent's free jobs. Valid until the next set_parent.
  Time bound_child(JobId job);

  /// The pre-vectorization scalar sweep (couple-outer, branchy skip),
  /// kept as the equality oracle for bound_child.
  Time bound_child_reference(JobId job);

  /// Machine fronts of the bound parent (for the property tests).
  std::span<const Time> parent_fronts() const { return parent_fronts_; }
  /// Scheduled mask of the bound parent.
  std::span<const std::uint8_t> scheduled() const { return scheduled_; }
  /// Unscheduled jobs of the bound parent.
  int free_count() const { return free_count_; }

 private:
  void extend_child_fronts(JobId job);

  const Instance* inst_;
  const LowerBoundData* data_;
  std::vector<Time> parent_fronts_;
  std::vector<Time> child_fronts_;
  std::vector<std::uint8_t> scheduled_;
  int free_count_ = 0;
  Lb1CoupleLanes lanes_;
};

/// Incremental two-sided LB1 for bidirectional branching: a node fixes a
/// head AND a tail of the permutation, and its children extend either end.
///
/// The bound is the max of two views of the same machine-couple sweep:
///
///   forward   machine fronts F of the head start each couple (k, l), the
///             free jobs run in Johnson order, and the couple finishes with
///             max(QM[l], B[l]), B the machine "backs" of the tail (the
///             time from the tail's start on a machine to the end);
///   reversed  the same sweep on the mirrored instance (machines and the
///             permutation reversed, which leaves every makespan intact):
///             the tail's backs start each couple, the jobs run in reversed
///             Johnson order with the machines swapped, and the couple
///             finishes with max(RM[k], F[k]).
///
/// The reversed view is read straight out of the forward LowerBoundData:
/// the mirrored couple of (k, l) is (m-1-l, m-1-k) with the same lags, and
/// RM and QM trade places. Its Johnson order is the forward order
/// reversed, which is an optimal order of the mirrored two-machine problem
/// with lags, so every bound equals the one a freshly built mirrored table
/// gives (a tested property; the tie-breaking of the two orders may differ,
/// their sweep values do not). Nothing is built per instance beyond this
/// context's buffers.
///
/// Like Lb1BoundContext, set_parent compacts each couple's Johnson order
/// to the parent's free jobs once (Lb1CoupleLanes), and each child then
/// costs an O(m) front (or back) extension plus two vectorized sweeps over
/// the remaining jobs. A complete node's bound is its exact makespan.
class Lb1BidirContext {
 public:
  Lb1BidirContext(const Instance& inst, const LowerBoundData& data);

  /// Binds the parent [head][free][tail] whose children are about to be
  /// bounded.
  void set_parent(std::span<const JobId> head, std::span<const JobId> tail);

  /// Bound of the child that appends `job` (a free job) to the head.
  Time bound_head_child(JobId job);
  /// Bound of the child that prepends `job` (a free job) to the tail.
  Time bound_tail_child(JobId job);

 private:
  /// max(forward view, reversed view) over the parent's free jobs minus
  /// `skip` (-1 skips none), with the given fronts and backs.
  Time sweep(std::span<const Time> fronts, std::span<const Time> backs,
             Time skip);

  const Instance* inst_;
  const LowerBoundData* data_;
  std::vector<Time> parent_fronts_, parent_backs_;
  std::vector<Time> child_fronts_, child_backs_;
  std::vector<std::uint8_t> scheduled_;
  int free_count_ = 0;
  Lb1CoupleLanes lanes_;
};

/// Convenience entry point: LB1 of the node whose scheduled prefix is
/// `prefix` (replays the prefix to obtain fronts). O(|prefix| m + m^2 n).
Time lb1_from_prefix(const Instance& inst, const LowerBoundData& data,
                     std::span<const JobId> prefix);

/// Same but with caller-provided scratch (no allocation).
Time lb1_from_prefix(const Instance& inst, const LowerBoundData& data,
                     std::span<const JobId> prefix, Lb1Scratch& scratch);

/// LB1 given already-maintained fronts and scheduled mask (the fast path the
/// branch-and-bound engine uses with incrementally extended fronts).
Time lb1_from_state(const LowerBoundData& data, std::span<const Time> fronts,
                    std::span<const std::uint8_t> scheduled);

}  // namespace fsbb::fsp
