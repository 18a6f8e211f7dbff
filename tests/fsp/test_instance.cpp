#include "fsp/instance.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/check.h"

namespace fsbb::fsp {
namespace {

Matrix<Time> small_pt() {
  Matrix<Time> pt(2, 3);
  pt(0, 0) = 1;
  pt(0, 1) = 2;
  pt(0, 2) = 3;
  pt(1, 0) = 4;
  pt(1, 1) = 5;
  pt(1, 2) = 6;
  return pt;
}

TEST(Instance, BasicAccessors) {
  const Instance inst("tiny", small_pt());
  EXPECT_EQ(inst.jobs(), 2);
  EXPECT_EQ(inst.machines(), 3);
  EXPECT_EQ(inst.name(), "tiny");
  EXPECT_EQ(inst.pt(0, 2), 3);
  EXPECT_EQ(inst.pt(1, 0), 4);
  EXPECT_EQ(inst.total_work(), 21);
}

TEST(Instance, MachinePairsFormula) {
  EXPECT_EQ(Instance("t", small_pt()).machine_pairs(), 3);  // m=3 -> 3 pairs
  Matrix<Time> pt(1, 20, 1);
  EXPECT_EQ(Instance("m20", std::move(pt)).machine_pairs(), 190);
}

TEST(Instance, RejectsEmptyDimensions) {
  EXPECT_THROW(Instance("bad", Matrix<Time>(0, 3)), CheckFailure);
  EXPECT_THROW(Instance("bad", Matrix<Time>(3, 0)), CheckFailure);
}

TEST(Instance, RejectsNegativeTimes) {
  Matrix<Time> pt(2, 2, 1);
  pt(1, 1) = -1;
  EXPECT_THROW(Instance("bad", std::move(pt)), CheckFailure);
}

TEST(Instance, RejectsTimesWhoseTotalOverflowsTime) {
  // 3x2 of 10^9: every makespan of it would overflow Time.
  Matrix<Time> pt(3, 2, 1000000000);
  try {
    const Instance inst("huge", std::move(pt));
    FAIL() << "accepted total work " << inst.total_work();
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("2147483647"), std::string::npos)
        << e.what();
  }
  // A total of exactly the limit still fits.
  Matrix<Time> edge(1, 2, 0);
  edge(0, 0) = std::numeric_limits<Time>::max() - 5;
  edge(0, 1) = 5;
  EXPECT_EQ(Instance("edge", std::move(edge)).total_work(),
            std::numeric_limits<Time>::max());
}

TEST(Instance, RejectsDimensionsBeyondJobIdRange) {
  // JobId and the machine-couple indices are int16: one more job or
  // machine than 32767 would wrap to a negative index.
  const auto expect_rejected = [](std::size_t jobs, std::size_t machines,
                                  const std::string& what) {
    try {
      const Instance inst("wide", Matrix<Time>(jobs, machines, 1));
      FAIL() << "accepted " << inst.jobs() << "x" << inst.machines();
    } catch (const CheckFailure& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(what), std::string::npos) << message;
      EXPECT_NE(message.find("limit is 32767"), std::string::npos) << message;
    }
  };
  expect_rejected(32768, 1, "32768 jobs");
  expect_rejected(40000, 2, "40000 jobs");
  expect_rejected(1, 32768, "32768 machines");
  // Exactly the limit still fits.
  EXPECT_EQ(Instance("jobs", Matrix<Time>(32767, 1, 1)).jobs(), 32767);
  EXPECT_EQ(Instance("machines", Matrix<Time>(1, 32767, 1)).machines(),
            32767);
}

TEST(Instance, ZeroTimesAreAllowed) {
  Matrix<Time> pt(2, 2, 0);
  const Instance inst("zeros", std::move(pt));
  EXPECT_EQ(inst.total_work(), 0);
}

TEST(Instance, PtmMatrixViewMatchesAccessor) {
  const Instance inst("tiny", small_pt());
  for (int j = 0; j < inst.jobs(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) {
      EXPECT_EQ(inst.ptm()(j, k), inst.pt(j, k));
    }
  }
}

}  // namespace
}  // namespace fsbb::fsp
