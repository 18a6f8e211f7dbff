#include "fsp/lb1.h"

#include <algorithm>

#include "common/check.h"
#include "fsp/makespan.h"

namespace fsbb::fsp {

Time lb1_from_prefix(const Instance& inst, const LowerBoundData& data,
                     std::span<const JobId> prefix, Lb1Scratch& scratch) {
  FSBB_CHECK(prefix.size() <= static_cast<std::size_t>(inst.jobs()));
  auto fronts = scratch.fronts();
  auto scheduled = scratch.scheduled();
  compute_fronts(inst, prefix, fronts);
  std::fill(scheduled.begin(), scheduled.end(), std::uint8_t{0});
  for (const JobId job : prefix) {
    scheduled[static_cast<std::size_t>(job)] = 1;
  }
  return lb1_evaluate(HostLb1Provider(data), fronts, scheduled);
}

Time lb1_from_prefix(const Instance& inst, const LowerBoundData& data,
                     std::span<const JobId> prefix) {
  Lb1Scratch scratch(inst.jobs(), inst.machines());
  return lb1_from_prefix(inst, data, prefix, scratch);
}

Lb1CoupleLanes::Lb1CoupleLanes(const LowerBoundData& data) {
  const auto n_pairs = static_cast<std::size_t>(data.pairs());
  const auto n = static_cast<std::size_t>(data.jobs());
  mk.resize(n_pairs);
  ml.resize(n_pairs);
  rmk.resize(n_pairs);
  rml.resize(n_pairs);
  qmk.resize(n_pairs);
  qml.resize(n_pairs);
  for (std::size_t s = 0; s < n_pairs; ++s) {
    const auto [k, l] = data.mm(static_cast<int>(s));
    mk[s] = k;
    ml[s] = l;
    rmk[s] = data.rm(k);
    rml[s] = data.rm(l);
    qmk[s] = data.qm(k);
    qml[s] = data.qm(l);
  }
  job.resize(n_pairs * n);
  p1.resize(n_pairs * n);
  p2.resize(n_pairs * n);
  lag.resize(n_pairs * n);
  t1.resize(n_pairs);
  t2.resize(n_pairs);
}

int Lb1CoupleLanes::pack(const LowerBoundData& data,
                         std::span<const std::uint8_t> scheduled) {
  const int n = data.jobs();
  const int n_pairs = data.pairs();
  const auto np = static_cast<std::size_t>(n_pairs);
  int free = 0;
  for (int s = 0; s < n_pairs; ++s) {
    const int k = mk[static_cast<std::size_t>(s)];
    const int l = ml[static_cast<std::size_t>(s)];
    int out = 0;
    for (int i = 0; i < n; ++i) {
      const JobId j = data.jm(s, i);
      if (scheduled[static_cast<std::size_t>(j)]) continue;
      const std::size_t at =
          static_cast<std::size_t>(out) * np + static_cast<std::size_t>(s);
      job[at] = j;
      p1[at] = data.ptm(j, k);
      p2[at] = data.ptm(j, l);
      lag[at] = data.lm(j, s);
      ++out;
    }
    FSBB_ASSERT(s == 0 || out == free);
    free = out;
  }
  return free;
}

Lb1BoundContext::Lb1BoundContext(const Instance& inst,
                                 const LowerBoundData& data)
    : inst_(&inst), data_(&data),
      parent_fronts_(static_cast<std::size_t>(inst.machines())),
      child_fronts_(static_cast<std::size_t>(inst.machines())),
      scheduled_(static_cast<std::size_t>(inst.jobs())),
      lanes_(data) {}

void Lb1BoundContext::set_parent(std::span<const JobId> prefix) {
  FSBB_CHECK(prefix.size() <= static_cast<std::size_t>(inst_->jobs()));
  compute_fronts(*inst_, prefix, parent_fronts_);
  std::fill(scheduled_.begin(), scheduled_.end(), std::uint8_t{0});
  for (const JobId job : prefix) {
    scheduled_[static_cast<std::size_t>(job)] = 1;
  }
  // Compact each couple's Johnson order down to the unscheduled jobs, so
  // every sibling's sweep iterates free_count_ entries instead of n: the
  // per-parent scatter buys a branch-free, unit-stride inner loop for
  // every sibling.
  free_count_ = lanes_.pack(*data_, scheduled_);
  FSBB_ASSERT(free_count_ ==
              inst_->jobs() - static_cast<int>(prefix.size()));
}

void Lb1BoundContext::extend_child_fronts(JobId job) {
  FSBB_ASSERT(!scheduled_[static_cast<std::size_t>(job)]);
  std::copy(parent_fronts_.begin(), parent_fronts_.end(),
            child_fronts_.begin());
  extend_fronts(*inst_, job, child_fronts_);
}

Time Lb1BoundContext::bound_child(JobId job) {
  extend_child_fronts(job);

  const int n_pairs = data_->pairs();
  const auto np = static_cast<std::size_t>(n_pairs);
  const int fc = free_count_;
  // Per-couple accumulator lanes (the couple axis has no cross-lane
  // dependency; the position axis does).
  Lb1CoupleLanes& ln = lanes_;
  for (std::size_t s = 0; s < np; ++s) {
    ln.t1[s] = std::max(child_fronts_[static_cast<std::size_t>(ln.mk[s])],
                        ln.rmk[s]);
    ln.t2[s] = std::max(child_fronts_[static_cast<std::size_t>(ln.ml[s])],
                        ln.rml[s]);
  }
  const Time tjob = job;
  for (int i = 0; i < fc; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * np;
    const Time* jid = ln.job.data() + base;
    const Time* p1 = ln.p1.data() + base;
    const Time* p2 = ln.p2.data() + base;
    const Time* lag = ln.lag.data() + base;
    Time* t1 = ln.t1.data();
    Time* t2 = ln.t2.data();
    for (std::size_t s = 0; s < np; ++s) {
      // keep == 0 reproduces the scalar `continue` exactly: both
      // accumulators stay untouched for the couple whose entry is the
      // child's own job.
      const Time keep = static_cast<Time>(jid[s] != tjob);
      t1[s] += keep * p1[s];
      const Time arrival = t1[s] + lag[s];
      const Time stepped = (t2[s] > arrival ? t2[s] : arrival) + p2[s];
      t2[s] += keep * (stepped - t2[s]);
    }
  }
  Time lb = 0;
  for (std::size_t s = 0; s < np; ++s) {
    lb = std::max(lb, ln.t2[s] + ln.qml[s]);
  }
  return lb;
}

Time Lb1BoundContext::bound_child_reference(JobId job) {
  extend_child_fronts(job);

  const LowerBoundData& d = *data_;
  const int n_pairs = d.pairs();
  const auto np = static_cast<std::size_t>(n_pairs);
  const int fc = free_count_;
  Time lb = 0;
  for (int s = 0; s < n_pairs; ++s) {
    const auto [k, l] = d.mm(s);
    Time t1 = std::max(child_fronts_[static_cast<std::size_t>(k)], d.rm(k));
    Time t2 = std::max(child_fronts_[static_cast<std::size_t>(l)], d.rm(l));
    for (int i = 0; i < fc; ++i) {
      // Couple s's compacted Johnson row, read down the packed column.
      const auto q = static_cast<JobId>(
          lanes_.job[static_cast<std::size_t>(i) * np +
                     static_cast<std::size_t>(s)]);
      if (q == job) continue;  // the one job the child scheduled
      t1 += d.ptm(q, k);
      const Time arrival = t1 + d.lm(q, s);
      t2 = (t2 > arrival ? t2 : arrival) + d.ptm(q, l);
    }
    t2 += d.qm(l);
    lb = std::max(lb, t2);
  }
  return lb;
}

namespace {

/// Extends machine backs by one job placed in front of the tail: the
/// reversed-instance twin of extend_fronts (machines walked last to first).
void extend_backs(const Instance& inst, JobId job, std::span<Time> backs) {
  Time prev = 0;
  for (int k = inst.machines() - 1; k >= 0; --k) {
    Time& b = backs[static_cast<std::size_t>(k)];
    b = std::max(prev, b) + inst.pt(job, k);
    prev = b;
  }
}

}  // namespace

Lb1BidirContext::Lb1BidirContext(const Instance& inst,
                                 const LowerBoundData& data)
    : inst_(&inst), data_(&data),
      parent_fronts_(static_cast<std::size_t>(inst.machines())),
      parent_backs_(static_cast<std::size_t>(inst.machines())),
      child_fronts_(static_cast<std::size_t>(inst.machines())),
      child_backs_(static_cast<std::size_t>(inst.machines())),
      scheduled_(static_cast<std::size_t>(inst.jobs())),
      lanes_(data) {}

void Lb1BidirContext::set_parent(std::span<const JobId> head,
                                 std::span<const JobId> tail) {
  const int n = inst_->jobs();
  FSBB_CHECK(head.size() + tail.size() <= static_cast<std::size_t>(n));
  compute_fronts(*inst_, head, parent_fronts_);
  std::fill(parent_backs_.begin(), parent_backs_.end(), Time{0});
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
    extend_backs(*inst_, *it, parent_backs_);
  }
  std::fill(scheduled_.begin(), scheduled_.end(), std::uint8_t{0});
  for (const JobId job : head) scheduled_[static_cast<std::size_t>(job)] = 1;
  for (const JobId job : tail) scheduled_[static_cast<std::size_t>(job)] = 1;
  free_count_ = lanes_.pack(*data_, scheduled_);
  FSBB_ASSERT(free_count_ == n - static_cast<int>(head.size() + tail.size()));
}

Time Lb1BidirContext::sweep(std::span<const Time> fronts,
                            std::span<const Time> backs, Time skip) {
  const auto np = static_cast<std::size_t>(data_->pairs());
  const auto fc = static_cast<std::size_t>(free_count_);
  const Lb1CoupleLanes& ln = lanes_;
  const std::vector<int>& mk = ln.mk;
  const std::vector<int>& ml = ln.ml;
  const std::vector<Time>& rmk = ln.rmk;
  const std::vector<Time>& rml = ln.rml;
  const std::vector<Time>& qmk = ln.qmk;
  const std::vector<Time>& qml = ln.qml;
  Time* t1 = lanes_.t1.data();
  Time* t2 = lanes_.t2.data();
  Time lb = 0;
  // Forward view: couple (k, l) from the head's fronts, free jobs in
  // Johnson order, finished by the tail's back on l. The keep-mask form
  // is Lb1BoundContext::bound_child's (branch-free, couple-contiguous).
  for (std::size_t s = 0; s < np; ++s) {
    t1[s] = std::max(fronts[static_cast<std::size_t>(mk[s])], rmk[s]);
    t2[s] = std::max(fronts[static_cast<std::size_t>(ml[s])], rml[s]);
  }
  for (std::size_t i = 0; i < fc; ++i) {
    const std::size_t base = i * np;
    const Time* jid = ln.job.data() + base;
    const Time* p1 = ln.p1.data() + base;
    const Time* p2 = ln.p2.data() + base;
    const Time* lag = ln.lag.data() + base;
    for (std::size_t s = 0; s < np; ++s) {
      const Time keep = static_cast<Time>(jid[s] != skip);
      t1[s] += keep * p1[s];
      const Time arrival = t1[s] + lag[s];
      const Time stepped = (t2[s] > arrival ? t2[s] : arrival) + p2[s];
      t2[s] += keep * (stepped - t2[s]);
    }
  }
  for (std::size_t s = 0; s < np; ++s) {
    lb = std::max(lb, t2[s] + std::max(qml[s],
                                       backs[static_cast<std::size_t>(ml[s])]));
  }
  // Reversed view: the mirrored couple runs l before k, from the tail's
  // backs, over the same compacted rows walked backwards (the reversed
  // Johnson order), finished by the head's front on k.
  for (std::size_t s = 0; s < np; ++s) {
    t1[s] = std::max(backs[static_cast<std::size_t>(ml[s])], qml[s]);
    t2[s] = std::max(backs[static_cast<std::size_t>(mk[s])], qmk[s]);
  }
  for (std::size_t i = fc; i-- > 0;) {
    const std::size_t base = i * np;
    const Time* jid = ln.job.data() + base;
    const Time* p1 = ln.p1.data() + base;
    const Time* p2 = ln.p2.data() + base;
    const Time* lag = ln.lag.data() + base;
    for (std::size_t s = 0; s < np; ++s) {
      const Time keep = static_cast<Time>(jid[s] != skip);
      t1[s] += keep * p2[s];
      const Time arrival = t1[s] + lag[s];
      const Time stepped = (t2[s] > arrival ? t2[s] : arrival) + p1[s];
      t2[s] += keep * (stepped - t2[s]);
    }
  }
  for (std::size_t s = 0; s < np; ++s) {
    lb = std::max(lb, t2[s] + std::max(rmk[s],
                                       fronts[static_cast<std::size_t>(mk[s])]));
  }
  return lb;
}

Time Lb1BidirContext::bound_head_child(JobId job) {
  FSBB_ASSERT(!scheduled_[static_cast<std::size_t>(job)]);
  std::copy(parent_fronts_.begin(), parent_fronts_.end(),
            child_fronts_.begin());
  extend_fronts(*inst_, job, child_fronts_);
  return sweep(child_fronts_, parent_backs_, job);
}

Time Lb1BidirContext::bound_tail_child(JobId job) {
  FSBB_ASSERT(!scheduled_[static_cast<std::size_t>(job)]);
  std::copy(parent_backs_.begin(), parent_backs_.end(), child_backs_.begin());
  extend_backs(*inst_, job, child_backs_);
  return sweep(parent_fronts_, child_backs_, job);
}

Time lb1_from_state(const LowerBoundData& data, std::span<const Time> fronts,
                    std::span<const std::uint8_t> scheduled) {
  FSBB_CHECK(fronts.size() == static_cast<std::size_t>(data.machines()));
  FSBB_CHECK(scheduled.size() == static_cast<std::size_t>(data.jobs()));
  return lb1_evaluate(HostLb1Provider(data), fronts, scheduled);
}

}  // namespace fsbb::fsp
