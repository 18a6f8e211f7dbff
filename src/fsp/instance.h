// Permutation flow-shop problem instance.
//
// n jobs must each visit machines M_0 .. M_{m-1} in that order; machine k
// processes job j for pt(j, k) uninterrupted time units; machines handle one
// job at a time and every machine processes jobs in the same (permutation)
// order. Objective: minimize the makespan C_max.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/matrix.h"

namespace fsbb::fsp {

/// Job index. int16 comfortably covers the largest Taillard instances (500).
using JobId = std::int16_t;

/// Time quantity (processing times, completion times, makespans, bounds).
using Time = std::int32_t;

/// Immutable problem instance: the processing-time matrix plus metadata.
class Instance {
 public:
  /// Most jobs or machines an instance may have: JobId and the
  /// machine-couple indices are int16.
  static constexpr int kMaxDimension = std::numeric_limits<JobId>::max();

  /// `pt` is job-major: pt(j, k) = processing time of job j on machine k.
  /// Throws CheckFailure on empty dimensions, more than 32767 jobs or
  /// machines (JobId and the machine-couple indices are int16), negative
  /// times, or times whose total exceeds Time's range (every makespan is
  /// at most the total, so this keeps schedule arithmetic free of
  /// overflow).
  Instance(std::string name, Matrix<Time> pt);

  int jobs() const { return static_cast<int>(pt_.rows()); }
  int machines() const { return static_cast<int>(pt_.cols()); }

  Time pt(int job, int machine) const { return pt_(job, machine); }

  /// The full processing-time matrix (the paper's PTM), job-major.
  const Matrix<Time>& ptm() const { return pt_; }

  const std::string& name() const { return name_; }

  /// Sum of all processing times — a trivial upper bound on the makespan.
  Time total_work() const { return total_work_; }

  /// Number of machine couples (k, l), k < l: m * (m - 1) / 2.
  int machine_pairs() const {
    const int m = machines();
    return m * (m - 1) / 2;
  }

 private:
  std::string name_;
  Matrix<Time> pt_;
  Time total_work_ = 0;
};

}  // namespace fsbb::fsp
