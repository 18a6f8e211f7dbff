#include "core/node_arena.h"

#include <algorithm>

#include "core/audit.h"

namespace fsbb::core {

NodeArena::NodeArena(int jobs, std::size_t lanes)
    : jobs_(jobs), top_(kTopEntries), lanes_(lanes) {
  FSBB_CHECK_MSG(jobs >= 1, "arena needs at least one job per node");
  FSBB_CHECK_MSG(lanes >= 1, "arena needs at least one lane");
}

void NodeArena::refill_bump_range(Lane& lane) {
  const LockGuard lock(grow_mu_);
  FSBB_CHECK_MSG(chunks_used_ < kMaxChunks, "node arena exhausted");
  const std::size_t chunk = chunks_used_++;
  std::unique_ptr<Leaf>& leaf = top_[chunk / kLeafChunks];
  if (leaf == nullptr) leaf = std::make_unique<Leaf>();
  std::unique_ptr<fsp::JobId[]>& slab = leaf->slabs[chunk % kLeafChunks];
  if (slab == nullptr) {
    slab = std::make_unique<fsp::JobId[]>(kChunkNodes *
                                          static_cast<std::size_t>(jobs_));
  }
  lane.bump_next = static_cast<Handle>(chunk * kChunkNodes);
  lane.bump_end = static_cast<Handle>((chunk + 1) * kChunkNodes);
}

NodeArena::Handle NodeArena::allocate(std::size_t lane_idx) {
  FSBB_ASSERT(lane_idx < lanes_.size());
  Lane& lane = lanes_[lane_idx];
  ++lane.allocated;
  if (!lane.free.empty()) {
    const Handle h = lane.free.back();
    lane.free.pop_back();
    if (audit_ != nullptr) audit_->on_allocate(h, lane_idx);
    return h;
  }
  if (lane.bump_next == lane.bump_end) refill_bump_range(lane);
  const Handle h = lane.bump_next++;
  if (audit_ != nullptr) audit_->on_allocate(h, lane_idx);
  return h;
}

void NodeArena::release(Handle h, std::size_t lane_idx) {
  FSBB_ASSERT(h != kNull);
  FSBB_ASSERT(lane_idx < lanes_.size());
  Lane& lane = lanes_[lane_idx];
  ++lane.released;
  if (audit_ != nullptr) audit_->on_release(h, lane_idx);
  lane.free.push_back(h);
}

NodeArena::Handle NodeArena::adopt(const Subproblem& sp, std::size_t lane) {
  FSBB_CHECK(sp.jobs() == jobs_);
  const Handle h = allocate(lane);
  const auto dst = perm(h);
  std::copy(sp.perm.begin(), sp.perm.end(), dst.begin());
  return h;
}

Subproblem NodeArena::materialize(Handle h, std::int32_t packed,
                                  fsp::Time lb) const {
  const auto src = perm(h);
  Subproblem sp;
  sp.perm.assign(src.begin(), src.end());
  sp.depth = packed_head(packed);
  sp.tail = packed_tail(packed);
  sp.lb = lb;
  return sp;
}

std::size_t NodeArena::live() const {
  std::uint64_t allocated = 0;
  std::uint64_t released = 0;
  for (const Lane& lane : lanes_) {
    allocated += lane.allocated;
    released += lane.released;
  }
  return static_cast<std::size_t>(allocated - released);
}

}  // namespace fsbb::core
