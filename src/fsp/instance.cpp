#include "fsp/instance.h"

#include <cstdint>
#include <limits>
#include <string>

#include "common/check.h"

namespace fsbb::fsp {

Instance::Instance(std::string name, Matrix<Time> pt)
    : name_(std::move(name)), pt_(std::move(pt)) {
  FSBB_CHECK_MSG(pt_.rows() >= 1, "instance needs at least one job");
  FSBB_CHECK_MSG(pt_.cols() >= 1, "instance needs at least one machine");
  constexpr auto kMax = static_cast<std::size_t>(kMaxDimension);
  FSBB_CHECK_MSG(pt_.rows() <= kMax,
                 "instance has " + std::to_string(pt_.rows()) +
                     " jobs; the limit is " + std::to_string(kMaxDimension));
  FSBB_CHECK_MSG(pt_.cols() <= kMax,
                 "instance has " + std::to_string(pt_.cols()) +
                     " machines; the limit is " +
                     std::to_string(kMaxDimension));
  // Every makespan, bound and partial completion time is at most the total
  // work, so bounding the total keeps all Time arithmetic in range.
  std::int64_t total = 0;
  for (const Time t : pt_.flat()) {
    FSBB_CHECK_MSG(t >= 0, "processing times must be non-negative");
    total += t;
    FSBB_CHECK_MSG(total <= std::numeric_limits<Time>::max(),
                   "total processing time exceeds the Time limit of " +
                       std::to_string(std::numeric_limits<Time>::max()));
  }
  total_work_ = static_cast<Time>(total);
}

}  // namespace fsbb::fsp
