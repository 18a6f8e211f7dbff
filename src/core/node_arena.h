// Flat node storage for the branch-and-bound engines.
//
// Every live sub-problem's permutation lives in one fixed-stride slab
// (jobs() entries per slot), so expanding a node is a memcpy into
// preallocated storage and pools/deques move small POD handles instead of
// heap-owning std::vector<JobId> nodes. This is the host-side analogue of
// the paper's packed device pools, and what Gmys (2020) and Chakroun &
// Melab rely on for their node rates: no allocator traffic on the hot
// path, and node data that stays cache-resident.
//
// Storage is chunked (kChunkNodes slots per slab) with stable addresses:
// growing never moves existing permutations, so spans handed out for a
// handle stay valid until that handle is released. Allocation is sharded
// into `lanes` — one per worker thread plus one for the coordinating
// thread — each with a private freelist and a private bump range, so the
// concurrent engines allocate and release without locking; only carving a
// fresh chunk out of the global slab list takes the (rare) mutex.
//
// Thread contract: lane i must only be used by one thread at a time. A
// handle may be released on any lane (freed slots simply join the
// releasing worker's lane). Reading perm(h) of a handle received through
// a synchronizing structure (pool mutex, deque mutex, atomic) is safe:
// the chunk pointer was published before the handle ever escaped.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "core/subproblem.h"
#include "fsp/instance.h"

namespace fsbb::core {

namespace audit {
class ArenaAudit;
}  // namespace audit

class NodeArena {
 public:
  /// Slot index. 32 bits cover every pool any engine here can hold.
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xFFFFFFFFu;

  static constexpr std::size_t kChunkNodes = 4096;
  static constexpr std::size_t kMaxChunks = 1u << 16;  // ~268M slots

  /// `lanes` = number of threads that will allocate/release concurrently.
  explicit NodeArena(int jobs, std::size_t lanes = 1);

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  int jobs() const { return jobs_; }
  std::size_t lanes() const { return lanes_.size(); }

  /// Slot with uninitialized permutation storage.
  Handle allocate(std::size_t lane = 0);

  /// Returns the slot to `lane`'s freelist. The handle's spans die here.
  void release(Handle h, std::size_t lane = 0);

  std::span<fsp::JobId> perm(Handle h) {
    return {slab_for(h), static_cast<std::size_t>(jobs_)};
  }
  std::span<const fsp::JobId> perm(Handle h) const {
    return {slab_for(h), static_cast<std::size_t>(jobs_)};
  }

  /// Copies a value node into the arena (the frozen-pool/solve_from seam).
  Handle adopt(const Subproblem& sp, std::size_t lane = 0);

  /// Materializes a handle back into a value node (does NOT release).
  /// `packed` is NodeRef::depth: head and tail (see pack_ends).
  Subproblem materialize(Handle h, std::int32_t packed, fsp::Time lb) const;

  /// Live slots across every lane. Coordinating-thread only (racy while
  /// workers run); the leak tests call it after the gang joined.
  std::size_t live() const;

  /// Attaches a lifecycle auditor (core/audit.h): every allocate/release
  /// is mirrored into it. nullptr detaches. Set before workers start;
  /// the pointer itself is not synchronized.
  void set_audit(audit::ArenaAudit* audit) { audit_ = audit; }

 private:
  struct Lane {
    std::vector<Handle> free;
    Handle bump_next = 0;
    Handle bump_end = 0;  // exclusive; == bump_next when the range is dry
    std::uint64_t allocated = 0;
    std::uint64_t released = 0;
    // Workers on separate cache lines; the hot fields are all above.
    char pad[64];
  };

  /// Two-level chunk directory: a fixed 256-entry top level (a few KB,
  /// paid per arena) pointing at on-demand 256-entry leaves. Both levels
  /// are fixed-capacity, so readers never race a reallocation; leaf and
  /// slab pointers are published under grow_mu_ before any handle in
  /// them escapes.
  static constexpr std::size_t kLeafChunks = 256;
  static constexpr std::size_t kTopEntries = kMaxChunks / kLeafChunks;

  struct Leaf {
    std::unique_ptr<fsp::JobId[]> slabs[kLeafChunks];
  };

  fsp::JobId* slab_for(Handle h) const {
    FSBB_ASSERT(h != kNull);
    const std::size_t chunk = h / kChunkNodes;
    const std::size_t slot = h % kChunkNodes;
    const Leaf* leaf = top_[chunk / kLeafChunks].get();
    FSBB_ASSERT(leaf != nullptr);
    fsp::JobId* slab = leaf->slabs[chunk % kLeafChunks].get();
    FSBB_ASSERT(slab != nullptr);
    return slab + slot * static_cast<std::size_t>(jobs_);
  }

  void refill_bump_range(Lane& lane);

  int jobs_;
  std::vector<std::unique_ptr<Leaf>> top_;
  std::vector<Lane> lanes_;
  Mutex grow_mu_;
  std::size_t chunks_used_ FSBB_GUARDED_BY(grow_mu_) = 0;
  audit::ArenaAudit* audit_ = nullptr;
};

/// A pooled node: the lower bound and the fixed-end counts ride along so
/// selection (best-first ordering, lazy pruning) never dereferences the
/// arena, and the permutation is a 4-byte slot index instead of an owning
/// vector. `depth` packs head and tail (pack_ends); forward nodes have
/// tail 0, so there depth is the plain head count.
struct NodeRef {
  fsp::Time lb = Subproblem::kUnevaluated;
  std::int32_t depth = 0;
  NodeArena::Handle slot = NodeArena::kNull;

  int head() const { return packed_head(depth); }
  int tail() const { return packed_tail(depth); }
  int fixed() const { return head() + tail(); }
};

}  // namespace fsbb::core
