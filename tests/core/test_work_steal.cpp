// WorkStealingDeque / ShardedPool: LIFO-owner / FIFO-thief semantics,
// deterministic drain() for the frozen-pool protocol, and a concurrent
// push/pop/steal smoke test that checks linearizability's observable
// consequence here: every node leaves the pool exactly once.
#include "core/work_steal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace fsbb::core {
namespace {

// A recognizable node: depth stores a payload id, perm is minimal.
Subproblem tagged(int id) {
  Subproblem sp = Subproblem::root(2);
  sp.lb = id;
  return sp;
}

TEST(WorkStealingDeque, OwnerPopsLifo) {
  WorkStealingDeque dq;
  for (int i = 0; i < 4; ++i) dq.push(tagged(i));
  for (int i = 3; i >= 0; --i) {
    const auto sp = dq.pop();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->lb, i);
  }
  EXPECT_FALSE(dq.pop().has_value());
}

TEST(WorkStealingDeque, ThiefStealsOldestFirst) {
  WorkStealingDeque dq;
  for (int i = 0; i < 5; ++i) dq.push(tagged(i));
  std::vector<Subproblem> loot;
  EXPECT_EQ(dq.steal(loot, 2), 2u);
  ASSERT_EQ(loot.size(), 2u);
  EXPECT_EQ(loot[0].lb, 0);  // oldest (closest to the root) goes first
  EXPECT_EQ(loot[1].lb, 1);
  // The owner's hot end is untouched.
  EXPECT_EQ(dq.pop()->lb, 4);
  EXPECT_EQ(dq.size(), 2u);
}

TEST(WorkStealingDeque, StealFromEmptyReturnsZero) {
  WorkStealingDeque dq;
  std::vector<Subproblem> loot;
  EXPECT_EQ(dq.steal(loot, 8), 0u);
  EXPECT_TRUE(loot.empty());
}

TEST(WorkStealingDeque, DrainIsFrontToBack) {
  WorkStealingDeque dq;
  for (int i = 0; i < 6; ++i) dq.push(tagged(i));
  const std::vector<Subproblem> out = dq.drain();
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].lb, i);
  EXPECT_TRUE(dq.empty());
}

TEST(ShardedPool, DistributeRoundRobinsAndDrainIsDeterministic) {
  ShardedPool pool(3);
  std::vector<Subproblem> nodes;
  for (int i = 0; i < 7; ++i) nodes.push_back(tagged(i));
  pool.distribute(std::move(nodes));
  EXPECT_EQ(pool.size(), 7u);
  EXPECT_EQ(pool.shard(0).size(), 3u);  // 0, 3, 6
  EXPECT_EQ(pool.shard(1).size(), 2u);  // 1, 4
  EXPECT_EQ(pool.shard(2).size(), 2u);  // 2, 5

  // Shard-major, front-to-back — the frozen-pool protocol relies on the
  // same inputs draining in the same order every time.
  const std::vector<Subproblem> out = pool.drain();
  ASSERT_EQ(out.size(), 7u);
  const std::vector<fsp::Time> expected = {0, 3, 6, 1, 4, 2, 5};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].lb, expected[i]) << i;
  }
  EXPECT_TRUE(pool.empty());
}

TEST(ShardedPool, RejectsZeroShards) {
  EXPECT_THROW(ShardedPool(0), CheckFailure);
}

// --- bounded rings over externally owned fixed-stride storage -----------
// The form the device-resident pools instantiate: same deque/shard
// machinery, but the slots live in a caller-owned slab and push can fail.

TEST(FixedRingDeque, PushFailsExactlyWhenTheSlabIsFull) {
  std::vector<std::uint32_t> slab(4);
  WorkStealingDequeT<std::uint32_t, FixedRingStorage<std::uint32_t>> deque{
      FixedRingStorage<std::uint32_t>(slab)};
  EXPECT_EQ(deque.capacity(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_TRUE(deque.push(i + 10));
  EXPECT_FALSE(deque.push(99));
  EXPECT_EQ(deque.size(), 4u);
  EXPECT_EQ(deque.pop(), 13u);  // LIFO owner end
  EXPECT_TRUE(deque.push(99));  // freed slot is reusable
}

TEST(FixedRingDeque, StealTakesOldestAndDrainIsFrontToBack) {
  std::vector<std::uint32_t> slab(8);
  WorkStealingDequeT<std::uint32_t, FixedRingStorage<std::uint32_t>> deque{
      FixedRingStorage<std::uint32_t>(slab)};
  for (std::uint32_t i = 0; i < 6; ++i) deque.push(std::uint32_t{i});
  std::vector<std::uint32_t> loot;
  EXPECT_EQ(deque.steal(loot, 2), 2u);
  EXPECT_EQ(loot, (std::vector<std::uint32_t>{0, 1}));
  // The ring wraps: pushes after front-pops reuse the vacated slots.
  deque.push(6u);
  deque.push(7u);
  deque.push(8u);
  EXPECT_EQ(deque.drain(), (std::vector<std::uint32_t>{2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(deque.empty());
}

TEST(ShardedPool, ShardsOverExternalStorageKeepTheSameOperations) {
  std::vector<std::uint32_t> slab(12);
  std::vector<FixedRingStorage<std::uint32_t>> rings;
  for (int s = 0; s < 3; ++s) {
    rings.emplace_back(std::span<std::uint32_t>(slab).subspan(
        static_cast<std::size_t>(s) * 4, 4));
  }
  ShardedPoolT<std::uint32_t, FixedRingStorage<std::uint32_t>> pool(
      std::move(rings));
  ASSERT_EQ(pool.shards(), 3u);
  std::vector<std::uint32_t> nodes;
  for (std::uint32_t i = 0; i < 9; ++i) nodes.push_back(i);
  pool.distribute(std::move(nodes));
  EXPECT_EQ(pool.size(), 9u);
  // Round-robin placement, then the deterministic shard-0-first drain.
  EXPECT_EQ(pool.drain(),
            (std::vector<std::uint32_t>{0, 3, 6, 1, 4, 7, 2, 5, 8}));
}

// Concurrency smoke test: one owner per shard pushes and pops its own
// deque while every worker also steals from the others. Each popped or
// stolen node is recorded; at the end every id must have left the pool
// exactly once — no loss, no duplication, regardless of interleaving.
TEST(WorkStealingDeque, ConcurrentPushPopStealLosesAndDuplicatesNothing) {
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 2000;
  ShardedPool pool(kWorkers);
  std::atomic<int> consumed{0};
  std::vector<std::vector<int>> seen(kWorkers);

  auto body = [&](int id) {
    std::vector<Subproblem> loot;
    int pushed = 0;
    std::size_t rr = static_cast<std::size_t>(id + 1) % kWorkers;
    while (consumed.load(std::memory_order_acquire) <
           kWorkers * kPerWorker) {
      if (pushed < kPerWorker) {
        // Globally unique payload id.
        pool.shard(static_cast<std::size_t>(id))
            .push(tagged(id * kPerWorker + pushed));
        ++pushed;
      }
      if (auto sp = pool.shard(static_cast<std::size_t>(id)).pop()) {
        seen[static_cast<std::size_t>(id)].push_back(
            static_cast<int>(sp->lb));
        consumed.fetch_add(1, std::memory_order_acq_rel);
        continue;
      }
      loot.clear();
      if (pool.shard(rr).steal(loot, 3) > 0) {
        for (const Subproblem& sp : loot) {
          seen[static_cast<std::size_t>(id)].push_back(
              static_cast<int>(sp.lb));
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      rr = (rr + 1) % kWorkers;
      if (rr == static_cast<std::size_t>(id)) rr = (rr + 1) % kWorkers;
    }
  };

  {
    std::vector<std::thread> threads;
    for (int id = 0; id < kWorkers; ++id) threads.emplace_back(body, id);
    for (auto& t : threads) t.join();
  }

  std::multiset<int> all;
  for (const auto& part : seen) all.insert(part.begin(), part.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kWorkers * kPerWorker));
  for (int id = 0; id < kWorkers * kPerWorker; ++id) {
    EXPECT_EQ(all.count(id), 1u) << "node " << id;
  }
  EXPECT_TRUE(pool.empty());
}

}  // namespace
}  // namespace fsbb::core
