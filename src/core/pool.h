// Pools of pending sub-problems — the paper's selection operator.
//
// Best-first (the strategy the paper uses for its GPU pools) pops the node
// with the smallest lower bound; depth-first pops LIFO. Both are fully
// deterministic: ties break on (deeper first — more jobs fixed at either
// end — then insertion sequence).
//
// The pool is generic over its node type: the engines store 12-byte
// NodeRef handles into a NodeArena (permutations never move through the
// heap), while the frozen-pool protocol and the tests keep using the
// value-typed Subproblem instantiation. Any type with an `lb` member and a
// `fixed()` count orders the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/node_arena.h"
#include "core/subproblem.h"

namespace fsbb::core {

/// Node selection strategies (paper §II-A).
enum class SelectionStrategy {
  kDepthFirst,
  kBestFirst,
};

const char* to_string(SelectionStrategy s);

/// Abstract pool of pending (already-bounded) sub-problems.
template <typename Node>
class PoolT {
 public:
  virtual ~PoolT() = default;

  virtual void push(Node&& sp) = 0;
  /// Pops the next node per the strategy. Pool must be non-empty.
  virtual Node pop() = 0;
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Removes and returns every node (order unspecified but deterministic).
  /// Used by the frozen-pool experimental protocol.
  virtual std::vector<Node> drain() = 0;
};

/// Value-typed pool: the public/protocol form.
using Pool = PoolT<Subproblem>;
/// Handle-typed pool: what the engines keep hot.
using ArenaPool = PoolT<NodeRef>;

namespace detail {

template <typename Node>
class DfsPool final : public PoolT<Node> {
 public:
  void push(Node&& sp) override { stack_.push_back(std::move(sp)); }

  Node pop() override {
    FSBB_CHECK(!stack_.empty());
    Node sp = std::move(stack_.back());
    stack_.pop_back();
    return sp;
  }

  std::size_t size() const override { return stack_.size(); }

  std::vector<Node> drain() override {
    std::vector<Node> out;
    out.swap(stack_);
    return out;
  }

 private:
  std::vector<Node> stack_;
};

// Entry with an insertion sequence number for deterministic tie-breaking.
template <typename Node>
struct BestFirstEntry {
  Node sp;
  std::uint64_t seq;
};

// Max-heap comparator that makes the *best* node the heap top: smaller lb
// wins, then larger depth (dive toward leaves), then earlier insertion.
template <typename Node>
struct WorseThan {
  bool operator()(const BestFirstEntry<Node>& a,
                  const BestFirstEntry<Node>& b) const {
    if (a.sp.lb != b.sp.lb) return a.sp.lb > b.sp.lb;
    if (a.sp.fixed() != b.sp.fixed()) return a.sp.fixed() < b.sp.fixed();
    return a.seq > b.seq;
  }
};

template <typename Node>
class BestFirstPool final : public PoolT<Node> {
 public:
  void push(Node&& sp) override {
    heap_.push_back(BestFirstEntry<Node>{std::move(sp), next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), WorseThan<Node>{});
  }

  Node pop() override {
    FSBB_CHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), WorseThan<Node>{});
    Node sp = std::move(heap_.back().sp);
    heap_.pop_back();
    return sp;
  }

  std::size_t size() const override { return heap_.size(); }

  std::vector<Node> drain() override {
    // Deterministic order: repeatedly pop the best.
    std::vector<Node> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) out.push_back(pop());
    return out;
  }

 private:
  std::vector<BestFirstEntry<Node>> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace detail

template <typename Node = Subproblem>
std::unique_ptr<PoolT<Node>> make_pool(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kDepthFirst:
      return std::make_unique<detail::DfsPool<Node>>();
    case SelectionStrategy::kBestFirst:
      return std::make_unique<detail::BestFirstPool<Node>>();
  }
  FSBB_CHECK_MSG(false, "unknown selection strategy");
  return nullptr;
}

}  // namespace fsbb::core
