// The branch + bound expansion step shared by the mtbb engines.
//
// Both the shared-pool baseline (mt_engine) and the work-stealing engine
// (steal_engine) expand a popped node the same way: bind the incremental
// LB1 context to the parent once, then for every free job bound the child
// with an O(m) front extension and a remaining-jobs-only sweep — the same
// sibling-batch discipline the serial engine gets through the
// BoundEvaluator::evaluate_siblings seam, and bit-identical to the old
// per-child prefix replay (the differential-fuzz suite checks it).
// Children are written straight into the shared NodeArena; survivors
// travel as 12-byte NodeRef handles.
//
// One definition here keeps the two engines bit-identical per node — the
// cross-engine agreement the differential-fuzz suite checks depends on it.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/node_arena.h"
#include "core/subproblem.h"
#include "fsp/instance.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "fsp/lb_data.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"

namespace fsbb::mtbb::detail {

/// LB2 bound context with the same set_parent/bound_child surface as
/// fsp::Lb1BoundContext, so expand_node is generic over the bound. This
/// used to replay prefix+job through lb2_from_prefix per child; the
/// node-local rm_U/qm_U minima turned out to have an incremental sibling
/// form after all (two-smallest tracking per machine — see
/// fsp::Lb2BoundContext), so the engines now get the same O(m)-per-child
/// seam for LB2 that LB1 has always had.
using Lb2BoundContext = fsp::Lb2BoundContext;

/// Best complete schedule seen while expanding one node.
struct BestLeaf {
  fsp::Time makespan = std::numeric_limits<fsp::Time>::max();
  std::vector<fsp::JobId> perm;
};

/// Branches the node behind `node.slot`, bounds every incomplete child
/// with the bound context (fsp::Lb1BoundContext or Lb2BoundContext — any
/// type with set_parent/bound_child) into `lbs`, appends the children
/// below `ub_snapshot` to `survivors` (cleared first) and accumulates the
/// generated/evaluated/pruned/leaves counters and the bounding time into
/// `stats`. All children are bounded before any survivor is allocated, so
/// the timed region is the bound context alone. Children are allocated on
/// `lane`; the caller still owns (and must release) the parent slot.
/// Returns the best complete child, if any.
template <typename BoundContext>
inline BestLeaf expand_node(const fsp::Instance& inst, core::NodeArena& arena,
                            std::size_t lane, const core::NodeRef& node,
                            fsp::Time ub_snapshot, BoundContext& ctx,
                            core::EngineStats& stats,
                            std::vector<fsp::Time>& lbs,
                            std::vector<core::NodeRef>& survivors) {
  survivors.clear();
  BestLeaf best;
  const auto perm = arena.perm(node.slot);
  const auto d = static_cast<std::size_t>(node.depth);
  const int r = inst.jobs() - node.depth;
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
  const auto children = static_cast<std::size_t>(r);
  lbs.resize(children);
  {
    const WallTimer bound_timer;
    ctx.set_parent(perm.first(d));
    for (std::size_t i = 0; i < children; ++i) {
      lbs[i] = ctx.bound_child(perm[d + i]);
    }
    stats.bounding_seconds += bound_timer.seconds();
  }
  stats.generated += children;
  stats.evaluated += children;
  for (std::size_t i = 0; i < children; ++i) {
    if (lbs[i] < ub_snapshot) {
      const core::NodeArena::Handle c = arena.allocate(lane);
      core::write_child_perm(perm, d, i, arena.perm(c));
      survivors.push_back(core::NodeRef{lbs[i], node.depth + 1, c});
    } else {
      ++stats.pruned;
    }
  }
  return best;
}

/// The engines' shared root-solve prologue: the starting incumbent (NEH
/// unless overridden) with its seed schedule, plus the bounded root node.
struct RootStart {
  fsp::Time ub;
  std::vector<fsp::JobId> seed_perm;
  core::Subproblem root;
};

/// `lb2` non-null bounds the root with LB2, so the root's bound matches
/// what the workers will compute for its descendants.
inline RootStart make_root_start(const fsp::Instance& inst,
                                 const fsp::LowerBoundData& data,
                                 const std::optional<fsp::Time>& initial_ub,
                                 const fsp::Lb2Data* lb2 = nullptr) {
  RootStart start;
  if (initial_ub.has_value()) {
    start.ub = *initial_ub;
  } else {
    fsp::NehResult neh = fsp::neh(inst);
    start.ub = neh.makespan;
    start.seed_perm = std::move(neh.permutation);
  }
  start.root = core::Subproblem::root(inst.jobs());
  start.root.lb =
      lb2 ? fsp::lb2_from_prefix(inst, data, *lb2, start.root.prefix())
          : fsp::lb1_from_prefix(inst, data, start.root.prefix());
  return start;
}

}  // namespace fsbb::mtbb::detail
