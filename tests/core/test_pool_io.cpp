#include "core/pool_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "fsp/generators.h"

namespace fsbb::core {
namespace {

FrozenPool sample_pool() {
  const fsp::Instance inst =
      fsp::make_instance(fsp::InstanceFamily::kUniform, 10, 5, 42);
  const auto data = fsp::LowerBoundData::build(inst);
  return freeze_pool(inst, data, 25, inst.total_work());
}

TEST(PoolIo, RoundTripIsBitIdentical) {
  const FrozenPool pool = sample_pool();
  std::stringstream ss;
  write_frozen_pool(ss, pool);
  const FrozenPool loaded = read_frozen_pool(ss);

  EXPECT_EQ(loaded.incumbent, pool.incumbent);
  ASSERT_EQ(loaded.nodes.size(), pool.nodes.size());
  for (std::size_t i = 0; i < pool.nodes.size(); ++i) {
    EXPECT_EQ(loaded.nodes[i].perm, pool.nodes[i].perm);
    EXPECT_EQ(loaded.nodes[i].depth, pool.nodes[i].depth);
    EXPECT_EQ(loaded.nodes[i].lb, pool.nodes[i].lb);
  }
}

TEST(PoolIo, FileRoundTrip) {
  const FrozenPool pool = sample_pool();
  const std::string path = ::testing::TempDir() + "/fsbb_pool_io_test.pool";
  write_frozen_pool_file(path, pool);
  const FrozenPool loaded = read_frozen_pool_file(path);
  EXPECT_EQ(loaded.nodes.size(), pool.nodes.size());
  EXPECT_EQ(loaded.incumbent, pool.incumbent);
}

TEST(PoolIo, ReloadedPoolExploresIdentically) {
  const fsp::Instance inst =
      fsp::make_instance(fsp::InstanceFamily::kUniform, 10, 5, 42);
  const auto data = fsp::LowerBoundData::build(inst);
  const FrozenPool pool = freeze_pool(inst, data, 25, inst.total_work());

  std::stringstream ss;
  write_frozen_pool(ss, pool);
  const FrozenPool loaded = read_frozen_pool(ss);

  SerialCpuEvaluator e1(inst, data);
  SerialCpuEvaluator e2(inst, data);
  const auto a =
      explore_frozen(inst, data, pool, e1, SelectionStrategy::kBestFirst, 8);
  const auto b =
      explore_frozen(inst, data, loaded, e2, SelectionStrategy::kBestFirst, 8);
  EXPECT_EQ(a.best_makespan, b.best_makespan);
  EXPECT_EQ(a.stats.branched, b.stats.branched);
  EXPECT_EQ(a.stats.pruned, b.stats.pruned);
}

TEST(PoolIo, RejectsCorruptInputs) {
  {
    std::istringstream in("not-a-pool 1\n");
    EXPECT_THROW(read_frozen_pool(in), CheckFailure);
  }
  {
    std::istringstream in("fsbb-frozen-pool 99\n3 1 100\n0 0 1 2 50\n");
    EXPECT_THROW(read_frozen_pool(in), CheckFailure);  // bad version
  }
  {
    // Duplicate job in the permutation.
    std::istringstream in("fsbb-frozen-pool 1\n3 1 100\n0 0 0 2 50\n");
    EXPECT_THROW(read_frozen_pool(in), CheckFailure);
  }
  {
    // Truncated node line.
    std::istringstream in("fsbb-frozen-pool 1\n3 2 100\n0 0 1 2 50\n");
    EXPECT_THROW(read_frozen_pool(in), CheckFailure);
  }
  {
    // Depth beyond the job count.
    std::istringstream in("fsbb-frozen-pool 1\n3 1 100\n7 0 1 2 50\n");
    EXPECT_THROW(read_frozen_pool(in), CheckFailure);
  }
}

TEST(PoolIo, TwoEndedNodesRoundTripAndVersionOneReadsAsForward) {
  FrozenPool pool;
  pool.incumbent = 99;
  Subproblem sp = Subproblem::root(5);
  sp.depth = 2;
  sp.tail = 1;
  sp.lb = 42;
  pool.nodes.push_back(sp);
  const FrozenPool loaded =
      read_frozen_pool_string(write_frozen_pool_string(pool), "test");
  ASSERT_EQ(loaded.nodes.size(), 1u);
  EXPECT_EQ(loaded.nodes[0].depth, 2);
  EXPECT_EQ(loaded.nodes[0].tail, 1);
  EXPECT_EQ(loaded.nodes[0].lb, 42);
  EXPECT_EQ(loaded.nodes[0].perm, sp.perm);

  // Checkpoints written before two-ended nodes existed load as tail 0.
  const FrozenPool old_format =
      read_frozen_pool_string("fsbb-frozen-pool 1\n3 1 100\n1 2 0 1 50\n");
  ASSERT_EQ(old_format.nodes.size(), 1u);
  EXPECT_EQ(old_format.nodes[0].depth, 1);
  EXPECT_EQ(old_format.nodes[0].tail, 0);
  EXPECT_EQ(old_format.nodes[0].lb, 50);

  // A tail overlapping the head is corrupt.
  EXPECT_THROW(
      read_frozen_pool_string("fsbb-frozen-pool 2\n3 1 100\n2 2 0 1 2 50\n"),
      CheckFailure);
}

TEST(PoolIo, RefusesEmptyPools) {
  FrozenPool empty;
  std::stringstream ss;
  EXPECT_THROW(write_frozen_pool(ss, empty), CheckFailure);
  try {
    write_frozen_pool(ss, empty);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("empty pool"), std::string::npos)
        << e.what();
  }
}

TEST(PoolIo, StringRoundTrip) {
  const FrozenPool pool = sample_pool();
  const std::string text = write_frozen_pool_string(pool);
  const FrozenPool loaded = read_frozen_pool_string(text, "test");
  EXPECT_EQ(loaded.incumbent, pool.incumbent);
  ASSERT_EQ(loaded.nodes.size(), pool.nodes.size());
  for (std::size_t i = 0; i < pool.nodes.size(); ++i) {
    EXPECT_EQ(loaded.nodes[i].perm, pool.nodes[i].perm);
  }
}

TEST(PoolIo, ErrorsNameTheSourceAndLineNumber) {
  // Node 2 lives on line 4 (magic, header, node, node) and carries a
  // duplicate job — the message must say where, in which source.
  const std::string text =
      "fsbb-frozen-pool 1\n3 2 100\n0 0 1 2 50\n0 0 0 2 50\n";
  try {
    read_frozen_pool_string(text, "shard-7.pool");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard-7.pool"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  }
}

TEST(PoolIo, FileErrorsNameThePath) {
  const std::string path = ::testing::TempDir() + "/fsbb_pool_io_bad.pool";
  {
    std::ofstream out(path);
    out << "fsbb-frozen-pool 1\ngarbage\n";
  }
  try {
    read_frozen_pool_file(path);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(PoolIo, ReadsCrlfTerminatedPools) {
  // A pool file that traveled through a Windows pipe: every line ends
  // \r\n. The reader must strip the '\r' instead of failing the parse.
  const FrozenPool pool = sample_pool();
  std::string text = write_frozen_pool_string(pool);
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const FrozenPool loaded = read_frozen_pool_string(crlf, "crlf");
  EXPECT_EQ(loaded.incumbent, pool.incumbent);
  EXPECT_EQ(loaded.nodes.size(), pool.nodes.size());
}

}  // namespace
}  // namespace fsbb::core
