// Sharded work-stealing pools — the scalable alternative to one
// mutex-guarded Pool shared by every thread.
//
// Each worker owns one deque-backed local pool: it pushes and pops at the
// back (LIFO — dive toward leaves, hot caches), while thieves steal from
// the front (FIFO — the oldest nodes sit closest to the root and carry the
// biggest subtrees, so one steal moves a large chunk of work). This is the
// per-worker-pool design Gmys (2020) and Chakroun & Melab (2012) show is
// what lets exact flow-shop B&B scale past the shared-pool ceiling.
//
// Every deque is one mutex-guarded storage; the storage is the only thing
// that varies. The steal engine instantiates the deque over 12-byte
// NodeRef handles in unbounded heap storage; the simulated GPU
// instantiates the same shard structure over bounded rings living in
// externally owned fixed-stride memory (a DeviceBuffer span) — one
// ShardedPool abstraction spanning the host workers and the per-SM
// device-resident pools. The critical sections are a few-word move
// (handle entries), so an uncontended lock is the whole cost.
//
// drain() is deterministic given the deque contents (shard 0..W-1, each
// front to back), so the frozen-pool protocol keeps working on top.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "core/node_arena.h"
#include "core/steal_stats.h"
#include "core/subproblem.h"

namespace fsbb::core {

/// Unbounded heap-backed deque storage — the host engines' default. Push
/// can never fail; capacity() is "infinite".
template <typename Node>
class HeapDequeStorage {
 public:
  bool full() const { return false; }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return static_cast<std::size_t>(-1); }
  bool empty() const { return items_.empty(); }

  bool push_back(Node&& n) {
    items_.push_back(std::move(n));
    return true;
  }
  Node pop_back() {
    Node n = std::move(items_.back());
    items_.pop_back();
    return n;
  }
  Node pop_front() {
    Node n = std::move(items_.front());
    items_.pop_front();
    return n;
  }
  /// Front-to-back element i (drain order).
  Node& at(std::size_t i) { return items_[i]; }
  void clear() { items_.clear(); }

 private:
  std::deque<Node> items_;
};

/// Bounded ring deque over externally owned fixed-stride storage: an arena
/// chunk, a device buffer span — any contiguous slab of Node slots whose
/// lifetime outlives the ring. The ring never allocates; push_back fails
/// (returns false) when the slab is full, which is the signal the owner
/// uses to spill to a sibling shard or back to the host.
template <typename Node>
class FixedRingStorage {
 public:
  FixedRingStorage() = default;
  explicit FixedRingStorage(std::span<Node> slots) : slots_(slots) {}

  bool full() const { return count_ == slots_.size(); }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }
  bool empty() const { return count_ == 0; }

  bool push_back(Node&& n) {
    if (count_ == slots_.size()) return false;
    slots_[index(count_)] = std::move(n);
    ++count_;
    return true;
  }
  Node pop_back() {
    FSBB_ASSERT(count_ > 0);
    --count_;
    return std::move(slots_[index(count_)]);
  }
  Node pop_front() {
    FSBB_ASSERT(count_ > 0);
    Node n = std::move(slots_[head_]);
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --count_;
    return n;
  }
  Node& at(std::size_t i) {
    FSBB_ASSERT(i < count_);
    return slots_[index(i)];
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  std::size_t index(std::size_t i) const {
    const std::size_t raw = head_ + i;
    return raw >= slots_.size() ? raw - slots_.size() : raw;
  }

  std::span<Node> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// One worker's local pool. Owner operations (push/pop) hit the back;
/// steals take the oldest nodes from the front. All operations are
/// thread-safe; the owner's lock is uncontended unless a thief is present.
template <typename Node, typename Storage = HeapDequeStorage<Node>>
class WorkStealingDequeT {
 public:
  WorkStealingDequeT() = default;
  /// Shard over externally owned storage (bounded rings and the like).
  explicit WorkStealingDequeT(Storage storage) : items_(std::move(storage)) {}

  /// Owner: push a node on the back (LIFO hot end). Returns false when a
  /// bounded storage is full (unbounded storages always succeed).
  bool push(Node&& sp) {
    const LockGuard lock(mu_);
    return items_.push_back(std::move(sp));
  }

  /// Owner: pop the most recently pushed node; nullopt when empty.
  std::optional<Node> pop() {
    const LockGuard lock(mu_);
    if (items_.empty()) return std::nullopt;
    return items_.pop_back();
  }

  /// Thief: move up to `max_nodes` of the *oldest* nodes into `out`.
  /// Returns how many were taken (0 when the deque is empty).
  std::size_t steal(std::vector<Node>& out, std::size_t max_nodes) {
    const LockGuard lock(mu_);
    std::size_t taken = 0;
    while (taken < max_nodes && !items_.empty()) {
      out.push_back(items_.pop_front());
      ++taken;
    }
    return taken;
  }

  std::size_t size() const {
    const LockGuard lock(mu_);
    return items_.size();
  }
  bool empty() const { return size() == 0; }
  /// Slots this shard can hold (bounded storages; "infinite" otherwise).
  std::size_t capacity() const {
    const LockGuard lock(mu_);
    return items_.capacity();
  }

  /// Removes every node front-to-back (deterministic given the contents).
  std::vector<Node> drain() {
    const LockGuard lock(mu_);
    std::vector<Node> out;
    out.reserve(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out.push_back(std::move(items_.at(i)));
    }
    items_.clear();
    return out;
  }

 private:
  mutable Mutex mu_;
  Storage items_ FSBB_GUARDED_BY(mu_);
};

/// A fixed set of per-worker deques plus the cross-shard operations the
/// steal engine, the frozen-pool protocol and the device-resident pools
/// need. Shard addresses are stable for the pool's lifetime.
template <typename Node, typename Storage = HeapDequeStorage<Node>>
class ShardedPoolT {
 public:
  using Deque = WorkStealingDequeT<Node, Storage>;

  /// `shards` default-constructed shards (heap storage: the host form).
  explicit ShardedPoolT(std::size_t shards) {
    FSBB_CHECK_MSG(shards >= 1, "sharded pool needs at least one shard");
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Deque>());
    }
  }

  /// One shard per storage, each living over externally owned memory (an
  /// arena chunk, a device-buffer span). The pool does not own the slabs.
  explicit ShardedPoolT(std::vector<Storage> storages) {
    FSBB_CHECK_MSG(!storages.empty(), "sharded pool needs at least one shard");
    shards_.reserve(storages.size());
    for (Storage& s : storages) {
      shards_.push_back(std::make_unique<Deque>(std::move(s)));
    }
  }

  std::size_t shards() const { return shards_.size(); }
  Deque& shard(std::size_t i) { return *shards_[i]; }
  const Deque& shard(std::size_t i) const { return *shards_[i]; }

  /// Round-robin an initial node list across the shards (node i goes to
  /// shard i % W) so every worker starts with a slice of the frozen pool.
  /// On bounded storages a full home shard spills to the next shard with
  /// room; a completely full pool is an error, never a silent drop.
  void distribute(std::vector<Node> nodes) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      bool placed = false;
      for (std::size_t probe = 0; probe < shards_.size() && !placed; ++probe) {
        placed = shards_[(i + probe) % shards_.size()]->push(
            std::move(nodes[i]));
      }
      FSBB_CHECK_MSG(placed, "sharded pool is full; node not distributable");
    }
  }

  std::size_t size() const {  ///< sum over shards (racy under concurrency)
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->size();
    return total;
  }
  bool empty() const { return size() == 0; }

  /// Drains shard 0..W-1, each front-to-back — deterministic given the
  /// per-shard contents, like Pool::drain().
  std::vector<Node> drain() {
    std::vector<Node> out;
    for (const auto& shard : shards_) {
      std::vector<Node> part = shard->drain();
      for (Node& sp : part) out.push_back(std::move(sp));
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<Deque>> shards_;
};

/// Value-typed instantiations: the protocol/test-facing form.
using WorkStealingDeque = WorkStealingDequeT<Subproblem>;
using ShardedPool = ShardedPoolT<Subproblem>;

}  // namespace fsbb::core
